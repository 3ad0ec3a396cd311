package minic

import (
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Semantic checking: scope and call-shape mistakes surface as
// compile-time diagnostics (as a C front-end would) instead of
// mid-run interpreter errors. Parse's binder (resolve.go) records them
// in its one walk over the program; CheckSemantics hands them out.

// SemaError is one semantic diagnostic.
type SemaError struct {
	Line int
	Msg  string
}

func (e SemaError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

// SemaOptions describes the names the runtime resolves.
type SemaOptions struct {
	// Predeclared names (runtime constants like MPI_COMM_WORLD) that
	// resolve without a declaration.
	Predeclared map[string]bool

	// BuiltinPrefixes are callee-name prefixes resolved by the runtime
	// (MPI_, omp_, pthread_); Builtins are exact extra names
	// (compute, printf, ...).
	BuiltinPrefixes []string
	Builtins        map[string]bool
}

// The runtime's name table, which the binder checks names against.
var (
	predeclared = nameSet(
		"MPI_COMM_WORLD", "MPI_ANY_SOURCE", "MPI_ANY_TAG",
		"MPI_THREAD_SINGLE", "MPI_THREAD_FUNNELED", "MPI_THREAD_SERIALIZED",
		"MPI_THREAD_MULTIPLE", "MPI_SUM", "MPI_PROD", "MPI_MAX", "MPI_MIN",
		"MPI_STATUS_IGNORE", "NULL",
	)
	builtins = nameSet(
		"compute", "printf", "print", "sqrt", "fabs", "floor", "ceil",
		"exp", "log", "sin", "cos", "fmin", "fmax", "pow", "abs",
	)
	builtinPrefixes = []string{"MPI_", "omp_", "pthread_"}
)

func nameSet(names ...string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// DefaultSemaOptions returns a copy of the runtime's name table, the
// one the binder checks names against.
func DefaultSemaOptions() SemaOptions {
	return SemaOptions{
		Predeclared:     maps.Clone(predeclared),
		BuiltinPrefixes: slices.Clone(builtinPrefixes),
		Builtins:        maps.Clone(builtins),
	}
}

// isBuiltin reports whether the runtime resolves the callee name.
func isBuiltin(name string) bool {
	if builtins[name] {
		return true
	}
	for _, p := range builtinPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// CheckSemantics returns the diagnostics of a parsed program, ordered
// by line and message (nil when clean). Parse's binder found them
// against the runtime's name table; opts is not consulted, and
// DefaultSemaOptions is the table it describes.
func CheckSemantics(prog *Program, opts SemaOptions) []SemaError {
	return slices.Clone(prog.diags)
}

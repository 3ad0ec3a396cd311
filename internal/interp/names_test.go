package interp

import (
	"strings"
	"testing"

	"home/internal/minic"
)

// TestRuntimeMatchesFrontEndNames pins the runtime to the front end's
// name table: the constants are exactly minic's predeclared names, and
// the binder handles every exact builtin name minic lets through.
func TestRuntimeMatchesFrontEndNames(t *testing.T) {
	table := minic.DefaultSemaOptions()
	for name := range constants {
		if !table.Predeclared[name] {
			t.Errorf("runtime constant %s is not predeclared in minic", name)
		}
	}
	for name := range table.Predeclared {
		if _, ok := constants[name]; !ok {
			t.Errorf("minic predeclares %s, but the runtime has no such constant", name)
		}
	}
	for name := range table.Builtins {
		res := run(t, `int main() { `+name+`(1, 2); return 0; }`, Config{})
		if err := res.FirstError(); err != nil && strings.Contains(err.Error(), "undefined function") {
			t.Errorf("builtin %s: %v", name, err)
		}
	}
}

package interp

import (
	"math"

	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/trace"
)

// monitorAccess emits a read/write event for a user variable when the
// whole-program monitoring mode (the ITC baseline model) is active.
func (tc *threadCtx) monitorAccess(op trace.Op, name string) {
	if tc.in.conf.MonitorAllAccesses && tc.ctx.Sink != nil {
		tc.ctx.EmitAccess(op, name)
	}
}

// kind is what lowering knows of an expression's float-ness.
type kind uint8

const (
	kindDyn   kind = iota // decided at run time
	kindInt               // never a double (Value.IsFloat is false)
	kindFloat             // always a double number
)

type (
	// numFn evaluates an expression to its number, Value.Num, without
	// building the Value.
	numFn func(tc *threadCtx) (float64, error)
	// valFn evaluates an expression to its whole value.
	valFn func(tc *threadCtx) (Value, error)
	// condFn evaluates an expression to its C truth value.
	condFn func(tc *threadCtx) (bool, error)
)

// expr is a lowered expression. num and val evaluate the same thing;
// a caller that needs only the number calls num, which for a static
// kind builds no Value.
type expr struct {
	num  numFn
	val  valFn
	kind kind
	// handle: the value may be an array or a request rather than a
	// plain number.
	handle bool
	// konst: the expression is the constant cv, with no effect.
	konst bool
	cv    Value
}

// number is a plain-number expression of static kind k; its Value is
// derived from num.
func number(k kind, num numFn) expr {
	isFloat := k == kindFloat
	return expr{kind: k, num: num, val: func(tc *threadCtx) (Value, error) {
		n, err := num(tc)
		if err != nil {
			return Value{}, err
		}
		return Value{Num: n, IsFloat: isFloat}, nil
	}}
}

// dynamic is an expression whose float-ness is known only at run
// time; its number is derived from val.
func dynamic(val valFn, handle bool) expr {
	return expr{kind: kindDyn, handle: handle, val: val, num: func(tc *threadCtx) (float64, error) {
		v, err := val(tc)
		return v.Num, err
	}}
}

// constant is the plain number v.
func constant(v Value) expr {
	k := kindInt
	if v.IsFloat {
		k = kindFloat
	}
	n := v.Num
	return expr{
		kind: k, konst: true, cv: v,
		num: func(*threadCtx) (float64, error) { return n, nil },
		val: func(*threadCtx) (Value, error) { return v, nil },
	}
}

// failing is an expression that raises a runtime error when it
// executes.
func failing(line int, format string, args ...any) expr {
	return dynamic(func(*threadCtx) (Value, error) {
		return Value{}, runtimeError(line, format, args...)
	}, false)
}

// expr lowers an expression.
func (l *lowerer) expr(e minic.Expr) expr {
	switch v := e.(type) {
	case *minic.NumberLit:
		if v.IsInt {
			return constant(intVal(v.Value))
		}
		return constant(floatVal(v.Value))
	case *minic.StringLit:
		return failing(v.Line, "string literals are only allowed as printf formats")
	case *minic.Ident:
		return l.ident(v)
	case *minic.Index:
		return l.index(v)
	case *minic.Unary:
		return unary(v, l.expr(v.X))
	case *minic.Binary:
		return binary(v.Line, v.Op, l.expr(v.X), l.expr(v.Y))
	case *minic.Assign:
		return l.assign(v.Line, v.Op, v.LHS, l.expr(v.RHS))
	case *minic.IncDec:
		op := minic.TPlusEq
		if v.Op == minic.TMinusMinus {
			op = minic.TMinusEq
		}
		return l.assign(v.Line, op, v.LHS, constant(intVal(1)))
	case *minic.Call:
		return l.call(v)
	}
	return failing(e.Pos(), "unsupported expression %T", e)
}

// cond lowers an expression evaluated for its truth value.
func (l *lowerer) cond(e minic.Expr) condFn {
	if v, ok := e.(*minic.Binary); ok {
		return condOf(v.Line, v.Op, l.expr(v.X), l.expr(v.Y))
	}
	return truth(l.expr(e))
}

// truth tests a lowered expression for C truth.
func truth(e expr) condFn {
	num := e.num
	return func(tc *threadCtx) (bool, error) {
		n, err := num(tc)
		return n != 0, err
	}
}

// condOf is the truth of x op y, evaluated as the binary expression is.
func condOf(line int, op minic.Kind, x, y expr) condFn {
	if !isComparison(op) {
		return truth(binary(line, op, x, y))
	}
	xn, yn := x.num, y.num
	if y.konst {
		c := y.cv.Num
		return func(tc *threadCtx) (bool, error) {
			a, err := xn(tc)
			return err == nil && compare(op, a, c), err
		}
	}
	return func(tc *threadCtx) (bool, error) {
		a, err := xn(tc)
		if err != nil {
			return false, err
		}
		b, err := yn(tc)
		return err == nil && compare(op, a, b), err
	}
}

func isComparison(op minic.Kind) bool {
	switch op {
	case minic.TEq, minic.TNe, minic.TLt, minic.TLe, minic.TGt, minic.TGe:
		return true
	}
	return false
}

// compare applies a comparison operator.
func compare(op minic.Kind, a, b float64) bool {
	switch op {
	case minic.TEq:
		return a == b
	case minic.TNe:
		return a != b
	case minic.TLt:
		return a < b
	case minic.TLe:
		return a <= b
	case minic.TGt:
		return a > b
	}
	return a >= b
}

// ident lowers a variable read. An unbound slot at run time falls back
// to the predeclared constant of the same name, then to an error.
func (l *lowerer) ident(id *minic.Ident) expr {
	r, name, line := id.Ref, id.Name, id.Line
	cv, isConst := constants[name]
	if !r.Global && !r.Bound() {
		if isConst {
			return constant(cv)
		}
		return failing(line, "undefined variable %q", name)
	}
	miss := func() (Value, error) {
		if isConst {
			return cv, nil
		}
		return Value{}, runtimeError(line, "undefined variable %q", name)
	}
	k := l.slotKind(r)
	return expr{
		kind: k, handle: k != kindFloat,
		num: func(tc *threadCtx) (float64, error) {
			c := tc.cell(r)
			if c == nil {
				v, err := miss()
				return v.Num, err
			}
			tc.monitorAccess(trace.OpRead, name)
			return c.loadNum(), nil
		},
		val: func(tc *threadCtx) (Value, error) {
			c := tc.cell(r)
			if c == nil {
				return miss()
			}
			tc.monitorAccess(trace.OpRead, name)
			return c.load(), nil
		},
	}
}

// array resolves an identifier to its array storage.
func (tc *threadCtx) array(id *minic.Ident) ([]float64, error) {
	c := tc.cell(id.Ref)
	if c == nil {
		return nil, runtimeError(id.Line, "undefined array %q", id.Name)
	}
	if p := c.ref.Load(); p != nil && p.Arr != nil {
		return p.Arr, nil
	}
	return nil, runtimeError(id.Line, "%q is not an array", id.Name)
}

// element lowers the location arr[idx]: the array, then the index,
// then the range check.
func (l *lowerer) element(ix *minic.Index) func(tc *threadCtx) ([]float64, int, error) {
	id, line := ix.Arr, ix.Line
	idx := l.expr(ix.Idx).num
	return func(tc *threadCtx) ([]float64, int, error) {
		arr, err := tc.array(id)
		if err != nil {
			return nil, 0, err
		}
		f, err := idx(tc)
		if err != nil {
			return nil, 0, err
		}
		i := int(f)
		if i < 0 || i >= len(arr) {
			return nil, 0, runtimeError(line, "index %d out of range for %s[%d]", i, id.Name, len(arr))
		}
		return arr, i, nil
	}
}

// index lowers an element read. Elements are doubles.
func (l *lowerer) index(ix *minic.Index) expr {
	elem, name := l.element(ix), ix.Arr.Name
	return number(kindFloat, func(tc *threadCtx) (float64, error) {
		arr, i, err := elem(tc)
		if err != nil {
			return 0, err
		}
		tc.monitorAccess(trace.OpRead, name)
		return mpi.LoadElem(arr, i), nil
	})
}

// unary lowers -x or !x, folded when x is a constant.
func unary(v *minic.Unary, x expr) expr {
	e := unaryOf(v, x)
	if x.konst {
		if c, err := e.val(nil); err == nil {
			return constant(c)
		}
	}
	return e
}

func unaryOf(v *minic.Unary, x expr) expr {
	xn, xv := x.num, x.val
	switch v.Op {
	case minic.TMinus:
		// Negation keeps the rest of the value, a handle included.
		return expr{
			kind: x.kind, handle: x.handle,
			num: func(tc *threadCtx) (float64, error) {
				n, err := xn(tc)
				return -n, err
			},
			val: func(tc *threadCtx) (Value, error) {
				v, err := xv(tc)
				v.Num = -v.Num
				return v, err
			},
		}
	case minic.TNot:
		return number(kindInt, func(tc *threadCtx) (float64, error) {
			n, err := xn(tc)
			return boolNum(err == nil && n == 0), err
		})
	}
	line := v.Line
	return dynamic(func(tc *threadCtx) (Value, error) {
		if _, err := xv(tc); err != nil {
			return Value{}, err
		}
		return Value{}, runtimeError(line, "unsupported unary operator")
	}, false)
}

// binary lowers x op y. Arithmetic over operands whose float-ness is
// static computes on raw numbers; the rest goes through applyBinary.
// An operation on two constants that raises no error is folded.
func binary(line int, op minic.Kind, x, y expr) expr {
	e := binaryOf(line, op, x, y)
	if x.konst && y.konst {
		if v, err := e.val(nil); err == nil {
			return constant(v)
		}
	}
	return e
}

func binaryOf(line int, op minic.Kind, x, y expr) expr {
	xn, yn := x.num, y.num
	switch {
	case op == minic.TAndAnd || op == minic.TOrOr:
		and := op == minic.TAndAnd
		return number(kindInt, func(tc *threadCtx) (float64, error) {
			a, err := xn(tc)
			if err != nil {
				return 0, err
			}
			if and == (a == 0) {
				return boolNum(!and), nil
			}
			b, err := yn(tc)
			return boolNum(err == nil && b != 0), err
		})
	case op == minic.TPercent:
		return number(kindInt, func(tc *threadCtx) (float64, error) {
			a, err := xn(tc)
			if err != nil {
				return 0, err
			}
			b, err := yn(tc)
			if err != nil {
				return 0, err
			}
			if int64(b) == 0 {
				return 0, runtimeError(line, "modulo by zero")
			}
			return float64(int64(a) % int64(b)), nil
		})
	case isComparison(op):
		c := condOf(line, op, x, y)
		return number(kindInt, func(tc *threadCtx) (float64, error) {
			ok, err := c(tc)
			return boolNum(ok), err
		})
	case op != minic.TPlus && op != minic.TMinus && op != minic.TStar && op != minic.TSlash:
		xv, yv := x.val, y.val
		return dynamic(func(tc *threadCtx) (Value, error) {
			if _, err := xv(tc); err != nil {
				return Value{}, err
			}
			if _, err := yv(tc); err != nil {
				return Value{}, err
			}
			return Value{}, runtimeError(line, "unsupported binary operator")
		}, false)
	case x.kind == kindDyn || y.kind == kindDyn:
		xv, yv := x.val, y.val
		return dynamic(func(tc *threadCtx) (Value, error) {
			a, err := xv(tc)
			if err != nil {
				return Value{}, err
			}
			b, err := yv(tc)
			if err != nil {
				return Value{}, err
			}
			return applyBinary(line, op, a, b)
		}, false)
	}
	isFloat := x.kind == kindFloat || y.kind == kindFloat
	k := kindInt
	if isFloat {
		k = kindFloat
	}
	if y.konst && (op != minic.TSlash || y.cv.Num != 0) {
		c := y.cv.Num
		return number(k, func(tc *threadCtx) (float64, error) {
			a, err := xn(tc)
			n, _ := arithNum(op, a, c, isFloat)
			return n, err
		})
	}
	return number(k, func(tc *threadCtx) (float64, error) {
		a, err := xn(tc)
		if err != nil {
			return 0, err
		}
		b, err := yn(tc)
		if err != nil {
			return 0, err
		}
		n, ok := arithNum(op, a, b, isFloat)
		if !ok {
			return 0, runtimeError(line, "division by zero")
		}
		return n, nil
	})
}

// boolNum is a C truth value as a number.
func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// arithNum is C's arithmetic for +, -, * and /: double when isFloat,
// truncating int otherwise. ok is false for a division by zero.
func arithNum(op minic.Kind, a, b float64, isFloat bool) (n float64, ok bool) {
	switch op {
	case minic.TPlus:
		n = a + b
	case minic.TMinus:
		n = a - b
	case minic.TStar:
		n = a * b
	case minic.TSlash:
		if b == 0 {
			return 0, false
		}
		if !isFloat {
			return float64(int64(a) / int64(b)), true
		}
		return a / b, true
	}
	if !isFloat {
		n = math.Trunc(n)
	}
	return n, true
}

// applyBinary is arithNum on whole values: the result is a double if
// either operand is.
func applyBinary(line int, op minic.Kind, x, y Value) (Value, error) {
	isFloat := x.IsFloat || y.IsFloat
	n, ok := arithNum(op, x.Num, y.Num, isFloat)
	if !ok {
		return Value{}, runtimeError(line, "division by zero")
	}
	return Value{Num: n, IsFloat: isFloat}, nil
}

// compoundOp maps a compound assignment (+=, -=, *=, /=) to its
// binary operator.
func compoundOp(op minic.Kind) (minic.Kind, bool) {
	switch op {
	case minic.TPlusEq:
		return minic.TPlus, true
	case minic.TMinusEq:
		return minic.TMinus, true
	case minic.TStarEq:
		return minic.TStar, true
	case minic.TSlashEq:
		return minic.TSlash, true
	}
	return 0, false
}

// assign lowers a store of rhs through lhs (a variable or an array
// element) with op being =, +=, -=, *= or /=. Its value is the stored
// value. rhs is evaluated first.
func (l *lowerer) assign(line int, op minic.Kind, lhs minic.Expr, rhs expr) expr {
	switch lhs := lhs.(type) {
	case *minic.Ident:
		return l.assignVar(line, op, lhs, rhs)
	case *minic.Index:
		return l.assignElem(line, op, lhs, rhs)
	}
	rv := rhs.val
	return dynamic(func(tc *threadCtx) (Value, error) {
		if _, err := rv(tc); err != nil {
			return Value{}, err
		}
		return Value{}, runtimeError(line, "assignment target must be a variable or array element")
	}, false)
}

// assignElem lowers a store to an array element. The element is a
// double, so the stored value is too.
func (l *lowerer) assignElem(line int, op minic.Kind, ix *minic.Index, rhs expr) expr {
	elem, name, rn := l.element(ix), ix.Arr.Name, rhs.num
	bop, ok := compoundOp(op)
	if op == minic.TAssign {
		return number(kindFloat, func(tc *threadCtx) (float64, error) {
			r, err := rn(tc)
			if err != nil {
				return 0, err
			}
			arr, i, err := elem(tc)
			if err != nil {
				return 0, err
			}
			tc.monitorAccess(trace.OpWrite, name)
			mpi.StoreElem(arr, i, r)
			return r, nil
		})
	}
	return number(kindFloat, func(tc *threadCtx) (float64, error) {
		r, err := rn(tc)
		if err != nil {
			return 0, err
		}
		arr, i, err := elem(tc)
		if err != nil {
			return 0, err
		}
		tc.monitorAccess(trace.OpRead, name)
		if !ok {
			return 0, runtimeError(line, "unsupported assignment operator")
		}
		nv, fine := arithNum(bop, mpi.LoadElem(arr, i), r, true)
		if !fine {
			return 0, runtimeError(line, "division by zero")
		}
		tc.monitorAccess(trace.OpWrite, name)
		mpi.StoreElem(arr, i, nv)
		return nv, nil
	})
}

// assignVar lowers a store to a variable. The store coerces to the
// variable's declared type, and the expression's value is the variable
// read back.
func (l *lowerer) assignVar(line int, op minic.Kind, id *minic.Ident, rhs expr) expr {
	r, name, idLine := id.Ref, id.Name, id.Line
	k := l.slotKind(r)
	bop, compound := compoundOp(op)
	var do func(tc *threadCtx) (*cell, error)
	switch {
	case op != minic.TAssign && !compound:
		rv := rhs.val
		do = func(tc *threadCtx) (*cell, error) {
			if _, err := rv(tc); err != nil {
				return nil, err
			}
			c := tc.cell(r)
			if c == nil {
				return nil, runtimeError(idLine, "undefined variable %q", name)
			}
			tc.monitorAccess(trace.OpRead, name)
			return nil, runtimeError(line, "unsupported assignment operator")
		}
	case !rhs.handle && rhs.kind != kindDyn && (op == minic.TAssign || k != kindDyn):
		// Raw numbers: the rhs and, for a compound, the variable have
		// a static float-ness.
		rn, rFloat := rhs.num, rhs.kind == kindFloat
		isFloat := rFloat || k == kindFloat
		do = func(tc *threadCtx) (*cell, error) {
			n, err := rn(tc)
			if err != nil {
				return nil, err
			}
			c := tc.cell(r)
			if c == nil {
				return nil, runtimeError(idLine, "undefined variable %q", name)
			}
			if compound {
				tc.monitorAccess(trace.OpRead, name)
				var ok bool
				if n, ok = arithNum(bop, c.loadNum(), n, isFloat); !ok {
					return nil, runtimeError(line, "division by zero")
				}
				tc.monitorAccess(trace.OpWrite, name)
				c.storeNum(n, isFloat)
				return c, nil
			}
			tc.monitorAccess(trace.OpWrite, name)
			c.storeNum(n, rFloat)
			return c, nil
		}
	default:
		rv := rhs.val
		do = func(tc *threadCtx) (*cell, error) {
			v, err := rv(tc)
			if err != nil {
				return nil, err
			}
			c := tc.cell(r)
			if c == nil {
				return nil, runtimeError(idLine, "undefined variable %q", name)
			}
			if compound {
				tc.monitorAccess(trace.OpRead, name)
				if v, err = applyBinary(line, bop, c.load(), v); err != nil {
					return nil, err
				}
			}
			tc.monitorAccess(trace.OpWrite, name)
			c.store(v)
			return c, nil
		}
	}
	return expr{
		kind: k, handle: k != kindFloat,
		num: func(tc *threadCtx) (float64, error) {
			c, err := do(tc)
			if err != nil {
				return 0, err
			}
			return c.loadNum(), nil
		},
		val: func(tc *threadCtx) (Value, error) {
			c, err := do(tc)
			if err != nil {
				return Value{}, err
			}
			return c.load(), nil
		},
	}
}

package interp

import (
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

// evalExpr evaluates an expression.
func (tc *threadCtx) evalExpr(e minic.Expr) (Value, error) {
	switch v := e.(type) {
	case *minic.NumberLit:
		if v.IsInt {
			return intVal(v.Value), nil
		}
		return floatVal(v.Value), nil

	case *minic.StringLit:
		return Value{}, runtimeError(v.Line, "string literals are only allowed as printf formats")

	case *minic.Ident:
		if c := tc.cell(v.Ref); c != nil {
			tc.monitorAccess(trace.OpRead, v.Name)
			return c.load(), nil
		}
		if cv, ok := constants[v.Name]; ok {
			return cv, nil
		}
		return Value{}, runtimeError(v.Line, "undefined variable %q", v.Name)

	case *minic.Index:
		arr, err := tc.arrayOf(v.Arr)
		if err != nil {
			return Value{}, err
		}
		iv, err := tc.evalExpr(v.Idx)
		if err != nil {
			return Value{}, err
		}
		i := iv.Int()
		if i < 0 || i >= len(arr) {
			return Value{}, runtimeError(v.Line, "index %d out of range for %s[%d]", i, v.Arr.Name, len(arr))
		}
		tc.monitorAccess(trace.OpRead, v.Arr.Name)
		return floatVal(mpi.LoadElem(arr, i)), nil

	case *minic.Unary:
		x, err := tc.evalExpr(v.X)
		if err != nil {
			return Value{}, err
		}
		switch v.Op {
		case minic.TMinus:
			x.Num = -x.Num
			return x, nil
		case minic.TNot:
			return boolVal(!x.Truthy()), nil
		}
		return Value{}, runtimeError(v.Line, "unsupported unary operator")

	case *minic.Binary:
		return tc.evalBinary(v)

	case *minic.Assign:
		rhs, err := tc.evalExpr(v.RHS)
		if err != nil {
			return Value{}, err
		}
		return tc.assign(v.Line, v.Op, v.LHS, rhs)

	case *minic.IncDec:
		op := minic.TPlusEq
		if v.Op == minic.TMinusMinus {
			op = minic.TMinusEq
		}
		return tc.assign(v.Line, op, v.LHS, intVal(1))

	case *minic.Call:
		return tc.evalCall(v)
	}
	return Value{}, runtimeError(e.Pos(), "unsupported expression %T", e)
}

// arrayOf resolves an identifier to its array storage.
func (tc *threadCtx) arrayOf(id *minic.Ident) ([]float64, error) {
	c := tc.cell(id.Ref)
	if c == nil {
		return nil, runtimeError(id.Line, "undefined array %q", id.Name)
	}
	v := c.load()
	if v.Arr == nil {
		return nil, runtimeError(id.Line, "%q is not an array", id.Name)
	}
	return v.Arr, nil
}

func (tc *threadCtx) evalBinary(v *minic.Binary) (Value, error) {
	// Short-circuit logical operators.
	if v.Op == minic.TAndAnd || v.Op == minic.TOrOr {
		x, err := tc.evalExpr(v.X)
		if err != nil {
			return Value{}, err
		}
		if v.Op == minic.TAndAnd && !x.Truthy() {
			return boolVal(false), nil
		}
		if v.Op == minic.TOrOr && x.Truthy() {
			return boolVal(true), nil
		}
		y, err := tc.evalExpr(v.Y)
		if err != nil {
			return Value{}, err
		}
		return boolVal(y.Truthy()), nil
	}

	x, err := tc.evalExpr(v.X)
	if err != nil {
		return Value{}, err
	}
	y, err := tc.evalExpr(v.Y)
	if err != nil {
		return Value{}, err
	}
	return applyBinary(v.Line, v.Op, x, y)
}

func applyBinary(line int, op minic.Kind, x, y Value) (Value, error) {
	isFloat := x.IsFloat || y.IsFloat
	num := func(n float64) Value {
		if isFloat {
			return floatVal(n)
		}
		return intVal(n)
	}
	switch op {
	case minic.TPlus:
		return num(x.Num + y.Num), nil
	case minic.TMinus:
		return num(x.Num - y.Num), nil
	case minic.TStar:
		return num(x.Num * y.Num), nil
	case minic.TSlash:
		if y.Num == 0 {
			return Value{}, runtimeError(line, "division by zero")
		}
		if !isFloat {
			return intVal(float64(int64(x.Num) / int64(y.Num))), nil
		}
		return floatVal(x.Num / y.Num), nil
	case minic.TPercent:
		if int64(y.Num) == 0 {
			return Value{}, runtimeError(line, "modulo by zero")
		}
		return intVal(float64(int64(x.Num) % int64(y.Num))), nil
	case minic.TEq:
		return boolVal(x.Num == y.Num), nil
	case minic.TNe:
		return boolVal(x.Num != y.Num), nil
	case minic.TLt:
		return boolVal(x.Num < y.Num), nil
	case minic.TLe:
		return boolVal(x.Num <= y.Num), nil
	case minic.TGt:
		return boolVal(x.Num > y.Num), nil
	case minic.TGe:
		return boolVal(x.Num >= y.Num), nil
	}
	return Value{}, runtimeError(line, "unsupported binary operator")
}

// compound applies the operator of a compound assignment (+=, -=, *=,
// /=) to a variable's old value.
func compound(line int, op minic.Kind, old, rhs Value) (Value, error) {
	switch op {
	case minic.TPlusEq:
		return applyBinary(line, minic.TPlus, old, rhs)
	case minic.TMinusEq:
		return applyBinary(line, minic.TMinus, old, rhs)
	case minic.TStarEq:
		return applyBinary(line, minic.TStar, old, rhs)
	case minic.TSlashEq:
		return applyBinary(line, minic.TSlash, old, rhs)
	}
	return Value{}, runtimeError(line, "unsupported assignment operator")
}

// assign stores rhs through lhs (a variable or an array element) with
// op being =, +=, -=, *= or /=, and returns the stored value.
func (tc *threadCtx) assign(line int, op minic.Kind, lhs minic.Expr, rhs Value) (Value, error) {
	switch lhs := lhs.(type) {
	case *minic.Ident:
		c := tc.cell(lhs.Ref)
		if c == nil {
			return Value{}, runtimeError(lhs.Line, "undefined variable %q", lhs.Name)
		}
		nv := rhs
		if op != minic.TAssign {
			tc.monitorAccess(trace.OpRead, lhs.Name)
			var err error
			if nv, err = compound(line, op, c.load(), rhs); err != nil {
				return Value{}, err
			}
		}
		tc.monitorAccess(trace.OpWrite, lhs.Name)
		c.store(nv)
		return c.load(), nil

	case *minic.Index:
		arr, err := tc.arrayOf(lhs.Arr)
		if err != nil {
			return Value{}, err
		}
		iv, err := tc.evalExpr(lhs.Idx)
		if err != nil {
			return Value{}, err
		}
		i := iv.Int()
		if i < 0 || i >= len(arr) {
			return Value{}, runtimeError(lhs.Line, "index %d out of range for %s[%d]", i, lhs.Arr.Name, len(arr))
		}
		nv := rhs
		if op != minic.TAssign {
			tc.monitorAccess(trace.OpRead, lhs.Arr.Name)
			if nv, err = compound(line, op, floatVal(mpi.LoadElem(arr, i)), rhs); err != nil {
				return Value{}, err
			}
		}
		tc.monitorAccess(trace.OpWrite, lhs.Arr.Name)
		mpi.StoreElem(arr, i, nv.Num)
		return floatVal(nv.Num), nil
	}
	return Value{}, runtimeError(line, "assignment target must be a variable or array element")
}

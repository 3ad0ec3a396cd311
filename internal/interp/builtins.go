package interp

import (
	"math"
	"strings"

	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/trace"
)

// builtin lowers a call of one builtin routine, bound by name at
// lowering.
type builtin func(l *lowerer, c *minic.Call) expr

// builtinTable binds every builtin routine name to its lowering. It is
// filled in init, because lowering a builtin's arguments refers back
// to it.
var builtinTable map[string]builtin

func init() {
	builtinTable = map[string]builtin{
		"compute": lowerCompute,
		"printf":  lowerPrintf,
		"print":   lowerPrintf,
		"sqrt":    mathBuiltin(math.Sqrt),
		"fabs":    mathBuiltin(math.Abs),
		"floor":   mathBuiltin(math.Floor),
		"ceil":    mathBuiltin(math.Ceil),
		"exp":     mathBuiltin(math.Exp),
		"log":     mathBuiltin(math.Log),
		"sin":     mathBuiltin(math.Sin),
		"cos":     mathBuiltin(math.Cos),
		"abs":     lowerAbs,
		"fmin":    mathBuiltin2(math.Min),
		"fmax":    mathBuiltin2(math.Max),
		"pow":     mathBuiltin2(math.Pow),
	}
	for name, f := range ompBuiltins {
		builtinTable[name] = counted(f)
	}
	for name, f := range mpiBuiltins {
		builtinTable[name] = counted(f)
	}
	for name, f := range pthreadBuiltins {
		builtinTable[name] = counted(f)
	}
}

// runtimePrefixes name the routine families of the MPI, OpenMP and
// pthreads runtime libraries. A call to an unknown routine of one of
// them fails when it executes.
var runtimePrefixes = []struct{ prefix, what string }{
	{"MPI_", "unsupported MPI routine %q"},
	{"omp_", "unsupported omp runtime call %q"},
	{"pthread_", "unsupported pthread call %q"},
}

// call lowers a call expression: a builtin binds to its lowering, a
// user call to its function.
func (l *lowerer) call(c *minic.Call) expr {
	if b, ok := builtinTable[c.Name]; ok {
		return b(l, c)
	}
	for _, p := range runtimePrefixes {
		if strings.HasPrefix(c.Name, p.prefix) {
			line, what, name := c.Line, p.what, c.Name
			return counted(func(*lowerer, *minic.Call) valFn {
				return func(*threadCtx) (Value, error) {
					return Value{}, runtimeError(line, what, name)
				}
			})(l, c)
		}
	}
	fn := l.funcs[c.Name]
	if fn == nil {
		return failing(c.Line, "call of undefined function %q", c.Name)
	}
	args := make([]valFn, len(c.Args))
	for i, a := range c.Args {
		args[i] = l.expr(a).val
	}
	line := c.Line
	return dynamic(func(tc *threadCtx) (Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			v, err := a(tc)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v
		}
		return tc.callFunction(fn, vals, line)
	})
}

// counted lowers a runtime-library routine: each call first tallies
// the builtin-call mix (interp.call.<Name>), then runs the routine.
func counted(lower func(l *lowerer, c *minic.Call) valFn) builtin {
	return func(l *lowerer, c *minic.Call) expr {
		key := "interp.call." + c.Name
		f := lower(l, c)
		return dynamic(func(tc *threadCtx) (Value, error) {
			if st := tc.in.conf.Stats; st != nil {
				st.Counter(key).Inc()
			}
			return f(tc)
		})
	}
}

// ---- argument helpers ----

// intArg lowers argument i as an integer.
func (l *lowerer) intArg(c *minic.Call, i int) func(*threadCtx) (int, error) {
	if i >= len(c.Args) {
		line, name := c.Line, c.Name
		return func(*threadCtx) (int, error) {
			return 0, runtimeError(line, "%s: missing argument %d", name, i+1)
		}
	}
	num := l.expr(c.Args[i]).num
	return func(tc *threadCtx) (int, error) {
		n, err := num(tc)
		return int(n), err
	}
}

// assignArg lowers a write through an lvalue argument (out-params like
// &provided, &req). Non-lvalue arguments are ignored, matching C
// programs that pass MPI_STATUS_IGNORE or NULL.
func (l *lowerer) assignArg(c *minic.Call, i int) func(*threadCtx, Value) error {
	if i < len(c.Args) {
		switch lhs := c.Args[i].(type) {
		case *minic.Ident:
			r, name := lhs.Ref, lhs.Name
			return func(tc *threadCtx, v Value) error {
				if cl := tc.cell(r); cl != nil {
					tc.monitorAccess(trace.OpWrite, name)
					cl.storeNum(v.Num)
				}
				return nil
			}
		case *minic.Index:
			elem, name := l.element(lhs), lhs.Arr.Name
			return func(tc *threadCtx, v Value) error {
				arr, i, err := elem(tc)
				if err != nil {
					return err
				}
				tc.monitorAccess(trace.OpWrite, name)
				mpi.StoreElem(arr, i, v.Num)
				return nil
			}
		}
	}
	return func(*threadCtx, Value) error { return nil }
}

// buffer resolves a buffer argument: an array identifier (whole
// array), an indexed expression (suffix starting at the index), or a
// scalar variable (one-element window with write-back).
type buffer struct {
	data []float64
	// scalarCell is set for scalar windows: receives data[0] on
	// write.
	scalarCell *cell
}

// read copies up to count elements out of the buffer.
func (b *buffer) read(count int) []float64 {
	if count > len(b.data) {
		count = len(b.data)
	}
	out := make([]float64, count)
	mpi.LoadElems(out, b.data)
	return out
}

// write copies data into the buffer (and the scalar cell if any).
func (b *buffer) write(data []float64) {
	mpi.StoreElems(b.data, data)
	if b.scalarCell != nil && len(data) > 0 {
		b.scalarCell.storeNum(data[0])
	}
}

// bufferArg lowers argument i as a buffer.
func (l *lowerer) bufferArg(c *minic.Call, i int) func(*threadCtx) (*buffer, error) {
	if i >= len(c.Args) {
		line, name := c.Line, c.Name
		return func(*threadCtx) (*buffer, error) {
			return nil, runtimeError(line, "%s: missing buffer argument %d", name, i+1)
		}
	}
	switch a := c.Args[i].(type) {
	case *minic.Ident:
		return func(tc *threadCtx) (*buffer, error) {
			cl := tc.cell(a.Ref)
			if cl == nil {
				return nil, runtimeError(a.Line, "undefined variable %q", a.Name)
			}
			if cl.arr != nil {
				return &buffer{data: cl.arr}, nil
			}
			// Scalar window.
			return &buffer{data: []float64{cl.loadNum()}, scalarCell: cl}, nil
		}
	case *minic.Index:
		idx := l.expr(a.Idx).num
		return func(tc *threadCtx) (*buffer, error) {
			arr, err := tc.array(a.Arr)
			if err != nil {
				return nil, err
			}
			f, err := idx(tc)
			if err != nil {
				return nil, err
			}
			off := int(f)
			if off < 0 || off > len(arr) {
				return nil, runtimeError(a.Line, "buffer offset %d out of range", off)
			}
			return &buffer{data: arr[off:]}, nil
		}
	}
	// Expression buffers (e.g. a literal) read-only.
	num := l.expr(c.Args[i]).num
	return func(tc *threadCtx) (*buffer, error) {
		n, err := num(tc)
		if err != nil {
			return nil, err
		}
		return &buffer{data: []float64{n}}, nil
	}
}

// requestArg lowers argument i as a request variable: it reads the
// request id the variable holds and returns the rank's entry for it,
// nil for a null request.
func requestArg(c *minic.Call, i int) func(*threadCtx) (*request, error) {
	line, name := c.Line, c.Name
	if i >= len(c.Args) {
		return func(*threadCtx) (*request, error) {
			return nil, runtimeError(line, "%s: missing request argument", name)
		}
	}
	id, ok := c.Args[i].(*minic.Ident)
	if !ok {
		return func(*threadCtx) (*request, error) {
			return nil, runtimeError(line, "%s: request argument must be a variable", name)
		}
	}
	return func(tc *threadCtx) (*request, error) {
		cl := tc.cell(id.Ref)
		if cl == nil {
			return nil, runtimeError(line, "undefined request variable %q", id.Name)
		}
		return tc.in.request(int(cl.loadNum())), nil
	}
}

// ---- the HMPI wrapper (paper §IV-B) ----

// monitoredFor maps a call kind to the monitored variables its
// wrapper writes.
func monitoredFor(kind trace.CallKind) []string {
	switch kind {
	case trace.CallSend, trace.CallRecv, trace.CallIsend, trace.CallIrecv,
		trace.CallSendrecv, trace.CallProbe, trace.CallIprobe:
		return []string{trace.VarSrc, trace.VarTag, trace.VarComm}
	case trace.CallWait, trace.CallTest:
		return []string{trace.VarRequest}
	case trace.CallBarrier, trace.CallBcast, trace.CallReduce,
		trace.CallAllreduce, trace.CallGather, trace.CallScatter,
		trace.CallAlltoall, trace.CallAllgather:
		return []string{trace.VarCollective, trace.VarComm}
	case trace.CallFinalize:
		return []string{trace.VarFinalize}
	case trace.CallPut, trace.CallGet, trace.CallAccumulate, trace.CallWinFence:
		return []string{trace.VarWindow}
	}
	return nil
}

// wrapMPI performs the instrumented wrapper's bookkeeping for one MPI
// call: WRITE events on the call kind's monitored variables, the call
// argument record (StartExecLog), and the per-call tool hook. It
// returns nil when the site is not instrumented or no sink is
// installed, which is the uninstrumented fast path of the paper's
// selective monitoring.
func (tc *threadCtx) wrapMPI(c *minic.Call, kind trace.CallKind, peer, tag, comm, request, level int) *trace.MPICall {
	return tc.wrapRecord(c, &trace.MPICall{
		Kind: kind, Peer: peer, Tag: tag, Comm: comm,
		Request: request, Level: level, Win: -1, Line: c.Line,
	})
}

// wrapRMA is the wrapper entry for one-sided calls (window id instead
// of the matching triple).
func (tc *threadCtx) wrapRMA(c *minic.Call, kind trace.CallKind, target, winID int) *trace.MPICall {
	return tc.wrapRecord(c, &trace.MPICall{
		Kind: kind, Peer: target, Tag: -1, Comm: -1,
		Request: -1, Level: -1, Win: winID, Line: c.Line,
	})
}

// wrapRecord performs the wrapper bookkeeping for a prepared record.
func (tc *threadCtx) wrapRecord(c *minic.Call, rec *trace.MPICall) *trace.MPICall {
	conf := tc.in.conf
	if tc.ctx.Sink == nil {
		return nil
	}
	kind := rec.Kind
	// Init, Init_thread and Finalize are always recorded: the
	// specification matcher needs the provided thread level and the
	// finalize timestamp regardless of where the calls appear (they
	// are one-time calls, so this costs nothing measurable).
	always := kind == trace.CallInit || kind == trace.CallInitThread || kind == trace.CallFinalize
	if !always && (conf.Instrument == nil || !conf.Instrument(c.CallID)) {
		return nil
	}
	for _, name := range monitoredFor(kind) {
		tc.ctx.Emit(trace.Event{
			Op:   trace.OpWrite,
			Name: name,
			Call: rec,
		})
	}
	tc.ctx.Emit(trace.Event{Op: trace.OpMPICall, Call: rec})
	if conf.CallHook != nil {
		conf.CallHook(tc.ctx, rec)
	}
	return rec
}

// The tag* helpers stamp message-match and collective-instance
// identities onto an already-emitted call record after the real MPI
// call returns. The record is shared by pointer with the trace log;
// nothing reads these fields until the run has joined, so the late
// mutation is race-free (see trace.MPICall).

// tagSend records the 1-based send index the runtime assigned to the
// message this call produced (Send advances the thread's counter
// exactly once per message).
func (tc *threadCtx) tagSend(rec *trace.MPICall) {
	if rec != nil {
		rec.SendIx = tc.ctx.MsgSeq
	}
}

// tagMatch records the matched message's origin on a receive-side
// record. A zero st.SendIx means no message matched (probe miss,
// send-request completion) and leaves the record untagged.
func (tc *threadCtx) tagMatch(rec *trace.MPICall, st mpi.Status) {
	if rec == nil || st.SendIx == 0 {
		return
	}
	rec.MatchRank = st.Source
	rec.MatchTID = st.SrcTID
	rec.MatchIx = st.SendIx
}

// tagColl records the per-communicator collective instance this call
// joined (published by the runtime via the thread's Ctx).
func (tc *threadCtx) tagColl(rec *trace.MPICall) {
	if rec != nil {
		rec.CollSeq = tc.ctx.LastCollSeq
	}
}

// ---- general builtins ----

func lowerCompute(l *lowerer, c *minic.Call) expr {
	units := l.intArg(c, 0)
	return number(kindInt, func(tc *threadCtx) (float64, error) {
		n, err := units(tc)
		if err != nil {
			return 0, err
		}
		tc.ctx.Compute(int64(n))
		return 0, nil
	})
}

// mathBuiltin lowers a one-argument math library routine.
func mathBuiltin(f func(float64) float64) builtin {
	return func(l *lowerer, c *minic.Call) expr {
		if len(c.Args) == 0 {
			return failing(c.Line, "%s needs one argument", c.Name)
		}
		x := l.expr(c.Args[0]).num
		return number(kindFloat, func(tc *threadCtx) (float64, error) {
			n, err := x(tc)
			return f(n), err
		})
	}
}

// mathBuiltin2 lowers a two-argument math library routine.
func mathBuiltin2(f func(x, y float64) float64) builtin {
	return func(l *lowerer, c *minic.Call) expr {
		if len(c.Args) < 2 {
			return failing(c.Line, "%s needs two arguments", c.Name)
		}
		x, y := l.expr(c.Args[0]).num, l.expr(c.Args[1]).num
		return number(kindFloat, func(tc *threadCtx) (float64, error) {
			a, err := x(tc)
			if err != nil {
				return 0, err
			}
			b, err := y(tc)
			return f(a, b), err
		})
	}
}

func lowerAbs(l *lowerer, c *minic.Call) expr {
	if len(c.Args) == 0 {
		return failing(c.Line, "%s needs one argument", c.Name)
	}
	x := l.expr(c.Args[0]).num
	return number(kindInt, func(tc *threadCtx) (float64, error) {
		n, err := x(tc)
		return math.Trunc(math.Abs(n)), err
	})
}

// lowerPrintf lowers printf/print into the captured output.
func lowerPrintf(l *lowerer, c *minic.Call) expr {
	format := ""
	start := 0
	if len(c.Args) > 0 {
		if s, ok := c.Args[0].(*minic.StringLit); ok {
			format = s.Value
			start = 1
		}
	}
	args := make([]valFn, 0, len(c.Args)-start)
	for _, a := range c.Args[start:] {
		args = append(args, l.expr(a).val)
	}
	// Translate the C-ish format: %d %f %g %e are passed through to
	// Go's fmt with compatible verbs.
	goFormat := strings.ReplaceAll(format, "%f", "%v")
	return number(kindInt, func(tc *threadCtx) (float64, error) {
		var parts []any
		for _, a := range args {
			v, err := a(tc)
			if err != nil {
				return 0, err
			}
			if v.IsFloat {
				parts = append(parts, v.Num)
			} else {
				parts = append(parts, int64(v.Num))
			}
		}
		if format == "" {
			for i, p := range parts {
				if i > 0 {
					tc.in.out.printf(" ")
				}
				tc.in.out.printf("%v", p)
			}
			tc.in.out.printf("\n")
			return 0, nil
		}
		tc.in.out.printf(goFormat, parts...)
		return 0, nil
	})
}

// ---- the omp_* runtime library ----

// ompBuiltins lowers the omp_* routines.
var ompBuiltins = map[string]func(*lowerer, *minic.Call) valFn{
	"omp_get_thread_num": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) { return intVal(float64(tc.ctx.TID)), nil }
	},
	"omp_get_num_threads": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) {
			if tc.member != nil {
				return intVal(float64(tc.member.NumThreads())), nil
			}
			return intVal(1), nil
		}
	},
	"omp_set_num_threads": func(l *lowerer, c *minic.Call) valFn {
		n := l.intArg(c, 0)
		return func(tc *threadCtx) (Value, error) {
			v, err := n(tc)
			if err != nil {
				return Value{}, err
			}
			tc.in.rt.SetNumThreads(v)
			return intVal(0), nil
		}
	},
	"omp_get_max_threads": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) { return intVal(float64(tc.in.rt.NumThreads())), nil }
	},
	"omp_in_parallel": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) {
			return boolVal(tc.member != nil && tc.member.InParallel()), nil
		}
	},
	"omp_get_wtime": func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) { return floatVal(float64(tc.ctx.Now) / 1e9), nil }
	},
	"omp_init_lock":    noop,
	"omp_destroy_lock": noop,
	"omp_set_lock":     lowerOmpLock(true),
	"omp_unset_lock":   lowerOmpLock(false),
}

// noop lowers a routine that does nothing and returns 0.
func noop(*lowerer, *minic.Call) valFn {
	return func(*threadCtx) (Value, error) { return intVal(0), nil }
}

// lowerOmpLock lowers omp_set_lock (set) or omp_unset_lock.
func lowerOmpLock(set bool) func(*lowerer, *minic.Call) valFn {
	return func(_ *lowerer, c *minic.Call) valFn {
		line, name := c.Line, c.Name
		if len(c.Args) == 0 {
			return func(*threadCtx) (Value, error) {
				return Value{}, runtimeError(line, "%s needs one argument", name)
			}
		}
		id, ok := c.Args[0].(*minic.Ident)
		if !ok {
			return func(*threadCtx) (Value, error) {
				return Value{}, runtimeError(line, "%s needs a lock variable", name)
			}
		}
		lock := id.Name
		return func(tc *threadCtx) (Value, error) {
			if tc.member == nil {
				return intVal(0), nil // single-threaded: trivially acquired
			}
			if set {
				return intVal(0), tc.member.Lock(lock)
			}
			tc.member.Unlock(lock)
			return intVal(0), nil
		}
	}
}

// ---- the request table ----

// request is one entry of a rank's request table. buf and count are a
// pending Irecv's destination window, cut at count; buf is nil for a
// send and once the payload is delivered.
type request struct {
	req   *mpi.Request
	buf   *buffer
	count int
}

// addRequest enters a request the rank started. Its id is what the
// program's request variable holds.
func (in *Instance) addRequest(req *mpi.Request, buf *buffer, count int) {
	in.reqMu.Lock()
	if in.reqs == nil {
		in.reqs = make(map[int]*request)
	}
	in.reqs[req.ID] = &request{req: req, buf: buf, count: count}
	in.reqMu.Unlock()
}

// request returns the entry of id: nil for 0 or any id the rank never
// allocated (a null request). A completed request keeps its entry.
func (in *Instance) request(id int) *request {
	in.reqMu.Lock()
	defer in.reqMu.Unlock()
	return in.reqs[id]
}

// completeIrecv deposits a completed Irecv's payload, once.
func (in *Instance) completeIrecv(r *request) {
	in.reqMu.Lock()
	buf := r.buf
	r.buf = nil
	in.reqMu.Unlock()
	if buf == nil {
		return
	}
	data := r.req.Data()
	if data == nil {
		return
	}
	if r.count < len(data) {
		data = data[:r.count]
	}
	buf.write(data)
}

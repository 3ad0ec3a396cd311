package interp

import (
	"math"
	"strings"

	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/trace"
)

// evalCall dispatches a call expression to a builtin or user function.
func (tc *threadCtx) evalCall(c *minic.Call) (Value, error) {
	if v, handled, err := tc.callBuiltin(c); handled {
		return v, err
	}
	fn := tc.in.prog.Func(c.Name)
	if fn == nil {
		return Value{}, runtimeError(c.Line, "call of undefined function %q", c.Name)
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := tc.evalExpr(a)
		if err != nil {
			return Value{}, err
		}
		args[i] = v
	}
	return tc.callFunction(fn, args, c.Line)
}

// countCall tallies the builtin-call mix (interp.call.<Name>). The
// nil check keeps stats-off runs free of the name concatenation.
func (tc *threadCtx) countCall(name string) {
	if tc.in.conf.Stats == nil {
		return
	}
	tc.in.conf.Stats.Counter("interp.call." + name).Inc()
}

// ---- argument helpers ----

// evalInt evaluates argument i as an integer.
func (tc *threadCtx) evalInt(c *minic.Call, i int) (int, error) {
	if i >= len(c.Args) {
		return 0, runtimeError(c.Line, "%s: missing argument %d", c.Name, i+1)
	}
	v, err := tc.evalExpr(c.Args[i])
	if err != nil {
		return 0, err
	}
	return v.Int(), nil
}

// assignArg writes a value through an lvalue argument (out-params
// like &provided, &req). Non-lvalue arguments are ignored, matching C
// programs that pass MPI_STATUS_IGNORE or NULL.
func (tc *threadCtx) assignArg(c *minic.Call, i int, v Value) error {
	if i >= len(c.Args) {
		return nil
	}
	switch lhs := c.Args[i].(type) {
	case *minic.Ident:
		if cell := tc.cell(lhs.Ref); cell != nil {
			tc.monitorAccess(trace.OpWrite, lhs.Name)
			cell.store(v)
		}
		return nil
	case *minic.Index:
		_, err := tc.assign(c.Line, minic.TAssign, lhs, v)
		return err
	}
	return nil
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
		b.scalarCell.store(floatVal(data[0]))
	}
}

// bufferArg resolves argument i as a buffer.
func (tc *threadCtx) bufferArg(c *minic.Call, i int) (*buffer, error) {
	if i >= len(c.Args) {
		return nil, runtimeError(c.Line, "%s: missing buffer argument %d", c.Name, i+1)
	}
	switch a := c.Args[i].(type) {
	case *minic.Ident:
		cl := tc.cell(a.Ref)
		if cl == nil {
			return nil, runtimeError(a.Line, "undefined variable %q", a.Name)
		}
		v := cl.load()
		if v.Arr != nil {
			return &buffer{data: v.Arr}, nil
		}
		// Scalar window.
		return &buffer{data: []float64{v.Num}, scalarCell: cl}, nil
	case *minic.Index:
		arr, err := tc.arrayOf(a.Arr)
		if err != nil {
			return nil, err
		}
		iv, err := tc.evalExpr(a.Idx)
		if err != nil {
			return nil, err
		}
		off := iv.Int()
		if off < 0 || off > len(arr) {
			return nil, runtimeError(a.Line, "buffer offset %d out of range", off)
		}
		return &buffer{data: arr[off:]}, nil
	default:
		// Expression buffers (e.g. a literal) read-only.
		v, err := tc.evalExpr(c.Args[i])
		if err != nil {
			return nil, err
		}
		return &buffer{data: []float64{v.Num}}, nil
	}
}

// requestArg resolves argument i as a request lvalue cell.
func (tc *threadCtx) requestArg(c *minic.Call, i int) (*cell, *mpi.Request, error) {
	if i >= len(c.Args) {
		return nil, nil, runtimeError(c.Line, "%s: missing request argument", c.Name)
	}
	id, ok := c.Args[i].(*minic.Ident)
	if !ok {
		return nil, nil, runtimeError(c.Line, "%s: request argument must be a variable", c.Name)
	}
	cl := tc.cell(id.Ref)
	if cl == nil {
		return nil, nil, runtimeError(c.Line, "undefined request variable %q", id.Name)
	}
	v := cl.load()
	return cl, v.Req, nil
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
			Loc:  trace.Loc{Rank: tc.ctx.Rank, Name: name},
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

// ---- builtin dispatch ----

// mathBuiltins are the one-argument math library builtins.
var mathBuiltins = map[string]func(float64) float64{
	"sqrt": math.Sqrt, "fabs": math.Abs, "floor": math.Floor,
	"ceil": math.Ceil, "exp": math.Exp, "log": math.Log,
	"sin": math.Sin, "cos": math.Cos,
}

// callBuiltin executes builtin functions; handled reports whether the
// name was recognized.
func (tc *threadCtx) callBuiltin(c *minic.Call) (Value, bool, error) {
	if strings.HasPrefix(c.Name, "MPI_") {
		tc.countCall(c.Name)
		v, err := tc.callMPI(c)
		return v, true, err
	}
	if strings.HasPrefix(c.Name, "omp_") {
		tc.countCall(c.Name)
		v, err := tc.callOmpRuntime(c)
		return v, true, err
	}
	if strings.HasPrefix(c.Name, "pthread_") {
		tc.countCall(c.Name)
		switch c.Name {
		case "pthread_create":
			v, err := tc.pthreadCreate(c)
			return v, true, err
		case "pthread_join":
			v, err := tc.pthreadJoin(c)
			return v, true, err
		case "pthread_self":
			return intVal(float64(tc.ctx.TID)), true, nil
		}
		return Value{}, true, runtimeError(c.Line, "unsupported pthread call %q", c.Name)
	}
	switch c.Name {
	case "compute":
		units, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, true, err
		}
		tc.ctx.Compute(int64(units))
		return intVal(0), true, nil
	case "printf", "print":
		return tc.callPrintf(c)
	case "sqrt", "fabs", "floor", "ceil", "exp", "log", "sin", "cos":
		v, err := tc.evalExpr(c.Args[0])
		if err != nil {
			return Value{}, true, err
		}
		return floatVal(mathBuiltins[c.Name](v.Num)), true, nil
	case "fmin", "fmax", "pow":
		if len(c.Args) < 2 {
			return Value{}, true, runtimeError(c.Line, "%s needs two arguments", c.Name)
		}
		x, err := tc.evalExpr(c.Args[0])
		if err != nil {
			return Value{}, true, err
		}
		y, err := tc.evalExpr(c.Args[1])
		if err != nil {
			return Value{}, true, err
		}
		switch c.Name {
		case "fmin":
			return floatVal(math.Min(x.Num, y.Num)), true, nil
		case "fmax":
			return floatVal(math.Max(x.Num, y.Num)), true, nil
		default:
			return floatVal(math.Pow(x.Num, y.Num)), true, nil
		}
	case "abs":
		v, err := tc.evalExpr(c.Args[0])
		if err != nil {
			return Value{}, true, err
		}
		return intVal(math.Abs(v.Num)), true, nil
	}
	return Value{}, false, nil
}

// callPrintf implements printf/print into the captured output.
func (tc *threadCtx) callPrintf(c *minic.Call) (Value, bool, error) {
	var parts []any
	format := ""
	start := 0
	if len(c.Args) > 0 {
		if s, ok := c.Args[0].(*minic.StringLit); ok {
			format = s.Value
			start = 1
		}
	}
	for i := start; i < len(c.Args); i++ {
		v, err := tc.evalExpr(c.Args[i])
		if err != nil {
			return Value{}, true, err
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
		return intVal(0), true, nil
	}
	// Translate the C-ish format: %d %f %g %e are passed through to
	// Go's fmt with compatible verbs.
	tc.in.out.printf(strings.ReplaceAll(format, "%f", "%v"), parts...)
	return intVal(0), true, nil
}

// callOmpRuntime implements the omp_* runtime library.
func (tc *threadCtx) callOmpRuntime(c *minic.Call) (Value, error) {
	switch c.Name {
	case "omp_get_thread_num":
		return intVal(float64(tc.ctx.TID)), nil
	case "omp_get_num_threads":
		if tc.member != nil {
			return intVal(float64(tc.member.NumThreads())), nil
		}
		return intVal(1), nil
	case "omp_set_num_threads":
		n, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		tc.in.rt.SetNumThreads(n)
		return intVal(0), nil
	case "omp_get_max_threads":
		return intVal(float64(tc.in.rt.NumThreads())), nil
	case "omp_in_parallel":
		return boolVal(tc.member != nil && tc.member.InParallel()), nil
	case "omp_get_wtime":
		return floatVal(float64(tc.ctx.Now) / 1e9), nil
	case "omp_init_lock", "omp_destroy_lock":
		return intVal(0), nil
	case "omp_set_lock", "omp_unset_lock":
		id, ok := c.Args[0].(*minic.Ident)
		if !ok {
			return Value{}, runtimeError(c.Line, "%s needs a lock variable", c.Name)
		}
		if tc.member == nil {
			return intVal(0), nil // single-threaded: trivially acquired
		}
		if c.Name == "omp_set_lock" {
			return intVal(0), tc.member.Lock(id.Name)
		}
		tc.member.Unlock(id.Name)
		return intVal(0), nil
	}
	return Value{}, runtimeError(c.Line, "unsupported omp runtime call %q", c.Name)
}

// callMPI implements the MPI builtins, running instrumented sites
// through the HMPI wrapper first.
func (tc *threadCtx) callMPI(c *minic.Call) (Value, error) {
	p := tc.in.proc
	ctx := tc.ctx
	switch c.Name {
	case "MPI_Init":
		tc.wrapMPI(c, trace.CallInit, -1, -1, -1, -1, mpi.ThreadSingle)
		return intVal(0), p.Init(ctx)

	case "MPI_Init_thread":
		level := mpi.ThreadSingle
		if len(c.Args) > 0 {
			// Accept both MPI_Init_thread(level, &provided) and the
			// 4-arg C form MPI_Init_thread(0, 0, level, &provided).
			idx := 0
			if len(c.Args) >= 3 {
				idx = 2
			}
			lv, err := tc.evalInt(c, idx)
			if err != nil {
				return Value{}, err
			}
			level = lv
		}
		tc.wrapMPI(c, trace.CallInitThread, -1, -1, -1, -1, level)
		provided, err := p.InitThread(ctx, level)
		if err != nil {
			return Value{}, err
		}
		// Out-param is the last argument if it is an lvalue.
		if len(c.Args) >= 2 {
			if err := tc.assignArg(c, len(c.Args)-1, intVal(float64(provided))); err != nil {
				return Value{}, err
			}
		}
		return intVal(float64(provided)), nil

	case "MPI_Finalize":
		tc.wrapMPI(c, trace.CallFinalize, -1, -1, -1, -1, -1)
		return intVal(0), p.Finalize(ctx)

	case "MPI_Comm_rank":
		tc.wrapMPI(c, trace.CallCommRank, -1, -1, 0, -1, -1)
		v := intVal(float64(p.Rank()))
		if len(c.Args) >= 2 {
			if err := tc.assignArg(c, 1, v); err != nil {
				return Value{}, err
			}
		}
		return v, nil

	case "MPI_Comm_size":
		tc.wrapMPI(c, trace.CallCommSize, -1, -1, 0, -1, -1)
		v := intVal(float64(p.Size()))
		if len(c.Args) >= 2 {
			if err := tc.assignArg(c, 1, v); err != nil {
				return Value{}, err
			}
		}
		return v, nil

	case "MPI_Comm_dup":
		comm, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		nc, err := p.CommDup(ctx, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		v := intVal(float64(nc))
		if len(c.Args) >= 2 {
			if err := tc.assignArg(c, 1, v); err != nil {
				return Value{}, err
			}
		}
		return v, nil

	case "MPI_Wtime":
		return floatVal(float64(ctx.Now) / 1e9), nil

	case "MPI_Is_thread_main":
		return boolVal(p.IsThreadMain(ctx)), nil

	case "MPI_Get_count":
		return intVal(float64(tc.status.Count)), nil
	case "MPI_Status_source":
		return intVal(float64(tc.status.Source)), nil
	case "MPI_Status_tag":
		return intVal(float64(tc.status.Tag)), nil

	case "MPI_Send", "MPI_Isend":
		buf, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		dest, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		tag, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		data := buf.read(count)
		if c.Name == "MPI_Send" {
			rec := tc.wrapMPI(c, trace.CallSend, dest, tag, comm, -1, -1)
			if err := p.Send(ctx, data, dest, tag, mpi.CommID(comm)); err != nil {
				return Value{}, err
			}
			tc.tagSend(rec)
			return intVal(0), nil
		}
		rec := tc.wrapMPI(c, trace.CallIsend, dest, tag, comm, -1, -1)
		req, err := p.Isend(ctx, data, dest, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagSend(rec)
		if len(c.Args) >= 6 {
			if err := tc.assignArg(c, 5, Value{Req: req}); err != nil {
				return Value{}, err
			}
		}
		return Value{Req: req}, nil

	case "MPI_Recv":
		buf, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		source, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		tag, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallRecv, source, tag, comm, -1, -1)
		data, st, err := p.Recv(ctx, source, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagMatch(rec, st)
		if count < len(data) {
			data = data[:count]
		}
		buf.write(data)
		tc.status = st
		return intVal(0), nil

	case "MPI_Irecv":
		_, err := tc.bufferArg(c, 0) // validated; data lands at Wait
		if err != nil {
			return Value{}, err
		}
		source, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		tag, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		tc.wrapMPI(c, trace.CallIrecv, source, tag, comm, -1, -1)
		req, err := p.Irecv(ctx, source, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		if len(c.Args) >= 6 {
			if err := tc.assignArg(c, 5, Value{Req: req}); err != nil {
				return Value{}, err
			}
		}
		// Remember the destination buffer for completion.
		tc.in.noteIrecvBuffer(req, c, tc)
		return Value{Req: req}, nil

	case "MPI_Wait":
		_, req, err := tc.requestArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		if req == nil {
			return Value{}, runtimeError(c.Line, "MPI_Wait on a null request")
		}
		rec := tc.wrapMPI(c, trace.CallWait, -1, -1, -1, req.ID, -1)
		st, err := p.Wait(ctx, req)
		if err != nil {
			return Value{}, err
		}
		tc.tagMatch(rec, st)
		tc.status = st
		tc.in.completeIrecv(req)
		return intVal(0), nil

	case "MPI_Test":
		_, req, err := tc.requestArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		if req == nil {
			return Value{}, runtimeError(c.Line, "MPI_Test on a null request")
		}
		rec := tc.wrapMPI(c, trace.CallTest, -1, -1, -1, req.ID, -1)
		ok, st, err := p.Test(ctx, req)
		if err != nil {
			return Value{}, err
		}
		if ok {
			tc.tagMatch(rec, st)
			tc.status = st
			tc.in.completeIrecv(req)
		}
		return boolVal(ok), nil

	case "MPI_Probe", "MPI_Iprobe":
		source, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		tag, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		if c.Name == "MPI_Probe" {
			rec := tc.wrapMPI(c, trace.CallProbe, source, tag, comm, -1, -1)
			st, err := p.Probe(ctx, source, tag, mpi.CommID(comm))
			if err != nil {
				return Value{}, err
			}
			tc.tagMatch(rec, st)
			tc.status = st
			return intVal(float64(st.Count)), nil
		}
		rec := tc.wrapMPI(c, trace.CallIprobe, source, tag, comm, -1, -1)
		ok, st, err := p.Iprobe(ctx, source, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		if ok {
			tc.tagMatch(rec, st)
			tc.status = st
		}
		return boolVal(ok), nil

	case "MPI_Barrier":
		comm, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallBarrier, -1, -1, comm, -1, -1)
		if err := p.Barrier(ctx, mpi.CommID(comm)); err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		return intVal(0), nil

	case "MPI_Bcast":
		buf, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		root, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallBcast, root, -1, comm, -1, -1)
		var in []float64
		if p.Rank() == root {
			in = buf.read(count)
		}
		out, err := p.Bcast(ctx, in, root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		buf.write(out)
		return intVal(0), nil

	case "MPI_Reduce", "MPI_Allreduce":
		send, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		recv, err := tc.bufferArg(c, 1)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		opn, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		op := mpi.ReduceOp(opn)
		if c.Name == "MPI_Reduce" {
			root, err := tc.evalInt(c, 4)
			if err != nil {
				return Value{}, err
			}
			comm, err := tc.evalInt(c, 5)
			if err != nil {
				return Value{}, err
			}
			rec := tc.wrapMPI(c, trace.CallReduce, root, -1, comm, -1, -1)
			out, err := p.Reduce(ctx, send.read(count), op, root, mpi.CommID(comm))
			if err != nil {
				return Value{}, err
			}
			tc.tagColl(rec)
			if out != nil {
				recv.write(out)
			}
			return intVal(0), nil
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallAllreduce, -1, -1, comm, -1, -1)
		out, err := p.Allreduce(ctx, send.read(count), op, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		recv.write(out)
		return intVal(0), nil

	case "MPI_Gather":
		send, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		recv, err := tc.bufferArg(c, 2)
		if err != nil {
			return Value{}, err
		}
		root, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallGather, root, -1, comm, -1, -1)
		out, err := p.Gather(ctx, send.read(count), root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		if out != nil {
			recv.write(out)
		}
		return intVal(0), nil

	case "MPI_Scatter":
		send, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		recv, err := tc.bufferArg(c, 1)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		root, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallScatter, root, -1, comm, -1, -1)
		var in []float64
		if p.Rank() == root {
			in = send.read(count * p.Size())
		}
		out, err := p.Scatter(ctx, in, root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		recv.write(out)
		return intVal(0), nil

	case "MPI_Win_create":
		// MPI_Win_create(buf, count, comm, &win)
		buf, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		region := buf.data
		if count < len(region) {
			region = region[:count]
		}
		win, err := p.WinCreate(ctx, region, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.wrapRMA(c, trace.CallWinCreate, -1, win.ID)
		v := intVal(float64(win.ID))
		if len(c.Args) >= 4 {
			if err := tc.assignArg(c, 3, v); err != nil {
				return Value{}, err
			}
		}
		return v, nil

	case "MPI_Put", "MPI_Get", "MPI_Accumulate":
		// MPI_Put(win, target, offset, buf, count) and friends.
		winID, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		target, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		offset, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		buf, err := tc.bufferArg(c, 3)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 4)
		if err != nil {
			return Value{}, err
		}
		win := tc.in.world.Window(winID)
		if win == nil {
			return Value{}, runtimeError(c.Line, "%s: unknown window %d", c.Name, winID)
		}
		switch c.Name {
		case "MPI_Put":
			tc.wrapRMA(c, trace.CallPut, target, winID)
			return intVal(0), p.Put(ctx, win, target, offset, buf.read(count))
		case "MPI_Accumulate":
			tc.wrapRMA(c, trace.CallAccumulate, target, winID)
			return intVal(0), p.Accumulate(ctx, win, target, offset, buf.read(count))
		default:
			tc.wrapRMA(c, trace.CallGet, target, winID)
			data, err := p.Get(ctx, win, target, offset, count)
			if err != nil {
				return Value{}, err
			}
			buf.write(data)
			return intVal(0), nil
		}

	case "MPI_Win_fence":
		winID, err := tc.evalInt(c, 0)
		if err != nil {
			return Value{}, err
		}
		win := tc.in.world.Window(winID)
		if win == nil {
			return Value{}, runtimeError(c.Line, "MPI_Win_fence: unknown window %d", winID)
		}
		tc.wrapRMA(c, trace.CallWinFence, -1, winID)
		return intVal(0), p.Fence(ctx, win)

	case "MPI_Win_free":
		return intVal(0), nil

	case "MPI_Sendrecv":
		// MPI_Sendrecv(sendbuf, scount, dest, stag, recvbuf, rcount, source, rtag, comm)
		sendBuf, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		scount, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		dest, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		stag, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		recvBuf, err := tc.bufferArg(c, 4)
		if err != nil {
			return Value{}, err
		}
		rcount, err := tc.evalInt(c, 5)
		if err != nil {
			return Value{}, err
		}
		source, err := tc.evalInt(c, 6)
		if err != nil {
			return Value{}, err
		}
		rtag, err := tc.evalInt(c, 7)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 8)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallSendrecv, source, rtag, comm, -1, -1)
		data, st, err := p.Sendrecv(ctx, sendBuf.read(scount), dest, stag, source, rtag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagSend(rec)
		tc.tagMatch(rec, st)
		if rcount < len(data) {
			data = data[:rcount]
		}
		recvBuf.write(data)
		tc.status = st
		return intVal(0), nil

	case "MPI_Allgather":
		send, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 1)
		if err != nil {
			return Value{}, err
		}
		recv, err := tc.bufferArg(c, 2)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallAllgather, -1, -1, comm, -1, -1)
		out, err := p.Allgather(ctx, send.read(count), mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		recv.write(out)
		return intVal(0), nil

	case "MPI_Alltoall":
		send, err := tc.bufferArg(c, 0)
		if err != nil {
			return Value{}, err
		}
		recv, err := tc.bufferArg(c, 1)
		if err != nil {
			return Value{}, err
		}
		count, err := tc.evalInt(c, 2)
		if err != nil {
			return Value{}, err
		}
		comm, err := tc.evalInt(c, 3)
		if err != nil {
			return Value{}, err
		}
		rec := tc.wrapMPI(c, trace.CallAlltoall, -1, -1, comm, -1, -1)
		out, err := p.Alltoall(ctx, send.read(count*p.Size()), mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		recv.write(out)
		return intVal(0), nil
	}
	return Value{}, runtimeError(c.Line, "unsupported MPI routine %q", c.Name)
}

// ---- Irecv completion buffers ----

// noteIrecvBuffer remembers where a pending Irecv should deposit its
// payload once Wait/Test completes it.
func (in *Instance) noteIrecvBuffer(req *mpi.Request, c *minic.Call, tc *threadCtx) {
	buf, err := tc.bufferArg(c, 0)
	if err != nil {
		return
	}
	count, err := tc.evalInt(c, 1)
	if err != nil {
		return
	}
	in.irecvMu.Lock()
	if in.irecvBufs == nil {
		in.irecvBufs = make(map[*mpi.Request]irecvTarget)
	}
	in.irecvBufs[req] = irecvTarget{buf: buf, count: count}
	in.irecvMu.Unlock()
}

// completeIrecv deposits a completed Irecv's payload.
func (in *Instance) completeIrecv(req *mpi.Request) {
	in.irecvMu.Lock()
	tgt, ok := in.irecvBufs[req]
	if ok {
		delete(in.irecvBufs, req)
	}
	in.irecvMu.Unlock()
	if !ok {
		return
	}
	data := req.Data()
	if data == nil {
		return
	}
	if tgt.count < len(data) {
		data = data[:tgt.count]
	}
	tgt.buf.write(data)
}

// irecvTarget pairs a pending Irecv with its destination window.
type irecvTarget struct {
	buf   *buffer
	count int
}

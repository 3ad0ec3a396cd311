package interp

import (
	"home/internal/minic"
	"home/internal/mpi"
	"home/internal/trace"
)

// mpiBuiltins lowers the MPI routines. Instrumented sites run through
// the HMPI wrapper (wrapMPI, wrapRMA) first. Arguments evaluate left to
// right, in the order each routine reads them.
var mpiBuiltins = map[string]func(*lowerer, *minic.Call) valFn{
	"MPI_Init":           lowerInit,
	"MPI_Init_thread":    lowerInitThread,
	"MPI_Finalize":       lowerFinalize,
	"MPI_Comm_rank":      lowerCommQuery(trace.CallCommRank, (*mpi.Proc).Rank),
	"MPI_Comm_size":      lowerCommQuery(trace.CallCommSize, (*mpi.Proc).Size),
	"MPI_Comm_dup":       lowerCommDup,
	"MPI_Wtime":          lowerWtime,
	"MPI_Is_thread_main": lowerIsThreadMain,
	"MPI_Get_count":      lowerStatus(func(st mpi.Status) int { return st.Count }),
	"MPI_Status_source":  lowerStatus(func(st mpi.Status) int { return st.Source }),
	"MPI_Status_tag":     lowerStatus(func(st mpi.Status) int { return st.Tag }),
	"MPI_Send":           lowerSend(false),
	"MPI_Isend":          lowerSend(true),
	"MPI_Recv":           lowerRecv,
	"MPI_Irecv":          lowerIrecv,
	"MPI_Wait":           lowerCompletion(false),
	"MPI_Test":           lowerCompletion(true),
	"MPI_Probe":          lowerProbe(false),
	"MPI_Iprobe":         lowerProbe(true),
	"MPI_Barrier":        lowerBarrier,
	"MPI_Bcast":          lowerBcast,
	"MPI_Reduce":         lowerReduce(false),
	"MPI_Allreduce":      lowerReduce(true),
	"MPI_Gather":         lowerGather,
	"MPI_Scatter":        lowerScatter,
	"MPI_Win_create":     lowerWinCreate,
	"MPI_Put":            lowerRMA(trace.CallPut),
	"MPI_Get":            lowerRMA(trace.CallGet),
	"MPI_Accumulate":     lowerRMA(trace.CallAccumulate),
	"MPI_Win_fence":      lowerWinFence,
	"MPI_Win_free":       noop,
	"MPI_Sendrecv":       lowerSendrecv,
	"MPI_Allgather":      lowerAllgather,
	"MPI_Alltoall":       lowerAlltoall,
}

// callArgs holds a routine's evaluated arguments by position: an int
// argument in n, a buffer argument in b.
type callArgs struct {
	n [9]int
	b [9]*buffer
}

// args lowers a routine's leading arguments as spec describes them,
// one letter per position: 'i' an int, 'b' a buffer, '_' not read.
// They evaluate left to right, and the first error stops the rest.
func (l *lowerer) args(c *minic.Call, spec string) func(*threadCtx) (callArgs, error) {
	type arg struct {
		pos int
		num func(*threadCtx) (int, error)
		buf func(*threadCtx) (*buffer, error)
	}
	var list []arg
	for pos, k := range spec {
		switch k {
		case 'i':
			list = append(list, arg{pos: pos, num: l.intArg(c, pos)})
		case 'b':
			list = append(list, arg{pos: pos, buf: l.bufferArg(c, pos)})
		}
	}
	return func(tc *threadCtx) (callArgs, error) {
		var a callArgs
		var err error
		for _, g := range list {
			if g.num != nil {
				a.n[g.pos], err = g.num(tc)
			} else {
				a.b[g.pos], err = g.buf(tc)
			}
			if err != nil {
				return a, err
			}
		}
		return a, nil
	}
}

func lowerInit(_ *lowerer, c *minic.Call) valFn {
	return func(tc *threadCtx) (Value, error) {
		tc.wrapMPI(c, trace.CallInit, -1, -1, -1, -1, mpi.ThreadSingle)
		return intVal(0), tc.in.proc.Init(tc.ctx)
	}
}

// lowerInitThread accepts both MPI_Init_thread(level, &provided) and
// the 4-arg C form MPI_Init_thread(0, 0, level, &provided). The
// out-param is the last argument if it is an lvalue.
func lowerInitThread(l *lowerer, c *minic.Call) valFn {
	var level func(*threadCtx) (int, error)
	if len(c.Args) > 0 {
		idx := 0
		if len(c.Args) >= 3 {
			idx = 2
		}
		level = l.intArg(c, idx)
	}
	var provided func(*threadCtx, Value) error
	if len(c.Args) >= 2 {
		provided = l.assignArg(c, len(c.Args)-1)
	}
	return func(tc *threadCtx) (Value, error) {
		lv := mpi.ThreadSingle
		if level != nil {
			var err error
			if lv, err = level(tc); err != nil {
				return Value{}, err
			}
		}
		tc.wrapMPI(c, trace.CallInitThread, -1, -1, -1, -1, lv)
		got, err := tc.in.proc.InitThread(tc.ctx, lv)
		if err != nil {
			return Value{}, err
		}
		v := intVal(float64(got))
		if provided != nil {
			if err := provided(tc, v); err != nil {
				return Value{}, err
			}
		}
		return v, nil
	}
}

func lowerFinalize(_ *lowerer, c *minic.Call) valFn {
	return func(tc *threadCtx) (Value, error) {
		tc.wrapMPI(c, trace.CallFinalize, -1, -1, -1, -1, -1)
		return intVal(0), tc.in.proc.Finalize(tc.ctx)
	}
}

// outArg lowers the optional out-parameter at position i: a no-op when
// the call passes fewer arguments.
func (l *lowerer) outArg(c *minic.Call, i int) func(*threadCtx, Value) error {
	if len(c.Args) <= i {
		return func(*threadCtx, Value) error { return nil }
	}
	return l.assignArg(c, i)
}

// lowerCommQuery lowers MPI_Comm_rank and MPI_Comm_size: the answer is
// returned and, given a second argument, written through it.
func lowerCommQuery(kind trace.CallKind, query func(*mpi.Proc) int) func(*lowerer, *minic.Call) valFn {
	return func(l *lowerer, c *minic.Call) valFn {
		out := l.outArg(c, 1)
		return func(tc *threadCtx) (Value, error) {
			tc.wrapMPI(c, kind, -1, -1, 0, -1, -1)
			v := intVal(float64(query(tc.in.proc)))
			return v, out(tc, v)
		}
	}
}

func lowerCommDup(l *lowerer, c *minic.Call) valFn {
	args, out := l.args(c, "i"), l.outArg(c, 1)
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		nc, err := tc.in.proc.CommDup(tc.ctx, mpi.CommID(a.n[0]))
		if err != nil {
			return Value{}, err
		}
		v := intVal(float64(nc))
		return v, out(tc, v)
	}
}

func lowerWtime(*lowerer, *minic.Call) valFn {
	return func(tc *threadCtx) (Value, error) { return floatVal(float64(tc.ctx.Now) / 1e9), nil }
}

func lowerIsThreadMain(*lowerer, *minic.Call) valFn {
	return func(tc *threadCtx) (Value, error) { return boolVal(tc.in.proc.IsThreadMain(tc.ctx)), nil }
}

// lowerStatus lowers a query of the thread's last MPI status.
func lowerStatus(field func(mpi.Status) int) func(*lowerer, *minic.Call) valFn {
	return func(*lowerer, *minic.Call) valFn {
		return func(tc *threadCtx) (Value, error) { return intVal(float64(field(tc.status))), nil }
	}
}

// lowerSend lowers MPI_Send(buf, count, dest, tag, comm) and, with
// nonblocking, MPI_Isend(..., &req).
func lowerSend(nonblocking bool) func(*lowerer, *minic.Call) valFn {
	return func(l *lowerer, c *minic.Call) valFn {
		args := l.args(c, "biiii")
		out := func(*threadCtx, Value) error { return nil }
		if nonblocking {
			out = l.outArg(c, 5)
		}
		return func(tc *threadCtx) (Value, error) {
			a, err := args(tc)
			if err != nil {
				return Value{}, err
			}
			count, dest, tag, comm := a.n[1], a.n[2], a.n[3], a.n[4]
			data := a.b[0].read(count)
			p := tc.in.proc
			if !nonblocking {
				rec := tc.wrapMPI(c, trace.CallSend, dest, tag, comm, -1, -1)
				if err := p.Send(tc.ctx, data, dest, tag, mpi.CommID(comm)); err != nil {
					return Value{}, err
				}
				tc.tagSend(rec)
				return intVal(0), nil
			}
			rec := tc.wrapMPI(c, trace.CallIsend, dest, tag, comm, -1, -1)
			req, err := p.Isend(tc.ctx, data, dest, tag, mpi.CommID(comm))
			if err != nil {
				return Value{}, err
			}
			tc.tagSend(rec)
			tc.in.addRequest(req, nil, 0)
			v := intVal(float64(req.ID))
			return v, out(tc, v)
		}
	}
}

// lowerRecv lowers MPI_Recv(buf, count, source, tag, comm, status).
func lowerRecv(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "biiii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, source, tag, comm := a.n[1], a.n[2], a.n[3], a.n[4]
		rec := tc.wrapMPI(c, trace.CallRecv, source, tag, comm, -1, -1)
		data, st, err := tc.in.proc.Recv(tc.ctx, source, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagMatch(rec, st)
		if count < len(data) {
			data = data[:count]
		}
		a.b[0].write(data)
		tc.status = st
		return intVal(0), nil
	}
}

// lowerIrecv lowers MPI_Irecv(buf, count, source, tag, comm, &req).
// Every argument is evaluated once, left to right, before the call;
// the data lands in that buffer, cut at that count, at the first
// Wait/Test that completes the request.
func lowerIrecv(l *lowerer, c *minic.Call) valFn {
	args, out := l.args(c, "biiii"), l.outArg(c, 5)
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		source, tag, comm := a.n[2], a.n[3], a.n[4]
		tc.wrapMPI(c, trace.CallIrecv, source, tag, comm, -1, -1)
		req, err := tc.in.proc.Irecv(tc.ctx, source, tag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.in.addRequest(req, a.b[0], a.n[1])
		v := intVal(float64(req.ID))
		return v, out(tc, v)
	}
}

// lowerCompletion lowers MPI_Wait(&req) and, with test, MPI_Test(&req).
func lowerCompletion(test bool) func(*lowerer, *minic.Call) valFn {
	return func(_ *lowerer, c *minic.Call) valFn {
		reqArg := requestArg(c, 0)
		kind := trace.CallWait
		if test {
			kind = trace.CallTest
		}
		return func(tc *threadCtx) (Value, error) {
			r, err := reqArg(tc)
			if err != nil {
				return Value{}, err
			}
			if r == nil {
				return Value{}, runtimeError(c.Line, "%s on a null request", c.Name)
			}
			rec := tc.wrapMPI(c, kind, -1, -1, -1, r.req.ID, -1)
			p := tc.in.proc
			ok, st := true, mpi.Status{}
			if test {
				ok, st, err = p.Test(tc.ctx, r.req)
			} else {
				st, err = p.Wait(tc.ctx, r.req)
			}
			if err != nil {
				return Value{}, err
			}
			if ok {
				tc.tagMatch(rec, st)
				tc.status = st
				tc.in.completeIrecv(r)
			}
			if test {
				return boolVal(ok), nil
			}
			return intVal(0), nil
		}
	}
}

// lowerProbe lowers MPI_Probe(source, tag, comm) and, with
// nonblocking, MPI_Iprobe.
func lowerProbe(nonblocking bool) func(*lowerer, *minic.Call) valFn {
	return func(l *lowerer, c *minic.Call) valFn {
		args := l.args(c, "iii")
		return func(tc *threadCtx) (Value, error) {
			a, err := args(tc)
			if err != nil {
				return Value{}, err
			}
			source, tag, comm := a.n[0], a.n[1], a.n[2]
			p := tc.in.proc
			if !nonblocking {
				rec := tc.wrapMPI(c, trace.CallProbe, source, tag, comm, -1, -1)
				st, err := p.Probe(tc.ctx, source, tag, mpi.CommID(comm))
				if err != nil {
					return Value{}, err
				}
				tc.tagMatch(rec, st)
				tc.status = st
				return intVal(float64(st.Count)), nil
			}
			rec := tc.wrapMPI(c, trace.CallIprobe, source, tag, comm, -1, -1)
			ok, st, err := p.Iprobe(tc.ctx, source, tag, mpi.CommID(comm))
			if err != nil {
				return Value{}, err
			}
			if ok {
				tc.tagMatch(rec, st)
				tc.status = st
			}
			return boolVal(ok), nil
		}
	}
}

func lowerBarrier(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "i")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		comm := a.n[0]
		rec := tc.wrapMPI(c, trace.CallBarrier, -1, -1, comm, -1, -1)
		if err := tc.in.proc.Barrier(tc.ctx, mpi.CommID(comm)); err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		return intVal(0), nil
	}
}

// lowerBcast lowers MPI_Bcast(buf, count, root, comm).
func lowerBcast(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "biii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, root, comm := a.n[1], a.n[2], a.n[3]
		rec := tc.wrapMPI(c, trace.CallBcast, root, -1, comm, -1, -1)
		p := tc.in.proc
		var in []float64
		if p.Rank() == root {
			in = a.b[0].read(count)
		}
		out, err := p.Bcast(tc.ctx, in, root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		a.b[0].write(out)
		return intVal(0), nil
	}
}

// lowerReduce lowers MPI_Reduce(send, recv, count, op, root, comm) and,
// with all, MPI_Allreduce(send, recv, count, op, comm).
func lowerReduce(all bool) func(*lowerer, *minic.Call) valFn {
	return func(l *lowerer, c *minic.Call) valFn {
		spec := "bbiiii"
		if all {
			spec = "bbiii"
		}
		args := l.args(c, spec)
		return func(tc *threadCtx) (Value, error) {
			a, err := args(tc)
			if err != nil {
				return Value{}, err
			}
			send, recv := a.b[0], a.b[1]
			count, op, p := a.n[2], mpi.ReduceOp(a.n[3]), tc.in.proc
			if !all {
				root, comm := a.n[4], a.n[5]
				rec := tc.wrapMPI(c, trace.CallReduce, root, -1, comm, -1, -1)
				out, err := p.Reduce(tc.ctx, send.read(count), op, root, mpi.CommID(comm))
				if err != nil {
					return Value{}, err
				}
				tc.tagColl(rec)
				if out != nil {
					recv.write(out)
				}
				return intVal(0), nil
			}
			comm := a.n[4]
			rec := tc.wrapMPI(c, trace.CallAllreduce, -1, -1, comm, -1, -1)
			out, err := p.Allreduce(tc.ctx, send.read(count), op, mpi.CommID(comm))
			if err != nil {
				return Value{}, err
			}
			tc.tagColl(rec)
			recv.write(out)
			return intVal(0), nil
		}
	}
}

// lowerGather lowers MPI_Gather(send, count, recv, root, comm).
func lowerGather(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "bibii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, root, comm := a.n[1], a.n[3], a.n[4]
		rec := tc.wrapMPI(c, trace.CallGather, root, -1, comm, -1, -1)
		out, err := tc.in.proc.Gather(tc.ctx, a.b[0].read(count), root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		if out != nil {
			a.b[2].write(out)
		}
		return intVal(0), nil
	}
}

// lowerScatter lowers MPI_Scatter(send, recv, count, root, comm).
func lowerScatter(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "bbiii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, root, comm := a.n[2], a.n[3], a.n[4]
		rec := tc.wrapMPI(c, trace.CallScatter, root, -1, comm, -1, -1)
		p := tc.in.proc
		var in []float64
		if p.Rank() == root {
			in = a.b[0].read(count * p.Size())
		}
		out, err := p.Scatter(tc.ctx, in, root, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		a.b[1].write(out)
		return intVal(0), nil
	}
}

// lowerWinCreate lowers MPI_Win_create(buf, count, comm, &win).
func lowerWinCreate(l *lowerer, c *minic.Call) valFn {
	args, out := l.args(c, "bii"), l.outArg(c, 3)
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, comm := a.n[1], a.n[2]
		region := a.b[0].data
		if count < len(region) {
			region = region[:count]
		}
		win, err := tc.in.proc.WinCreate(tc.ctx, region, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.wrapRMA(c, trace.CallWinCreate, -1, win.ID)
		v := intVal(float64(win.ID))
		return v, out(tc, v)
	}
}

// lowerRMA lowers MPI_Put(win, target, offset, buf, count) and its
// friends MPI_Get and MPI_Accumulate.
func lowerRMA(kind trace.CallKind) func(*lowerer, *minic.Call) valFn {
	return func(l *lowerer, c *minic.Call) valFn {
		args := l.args(c, "iiibi")
		return func(tc *threadCtx) (Value, error) {
			a, err := args(tc)
			if err != nil {
				return Value{}, err
			}
			winID, target, offset, buf, count := a.n[0], a.n[1], a.n[2], a.b[3], a.n[4]
			win := tc.in.world.Window(winID)
			if win == nil {
				return Value{}, runtimeError(c.Line, "%s: unknown window %d", c.Name, winID)
			}
			tc.wrapRMA(c, kind, target, winID)
			p := tc.in.proc
			switch kind {
			case trace.CallPut:
				return intVal(0), p.Put(tc.ctx, win, target, offset, buf.read(count))
			case trace.CallAccumulate:
				return intVal(0), p.Accumulate(tc.ctx, win, target, offset, buf.read(count))
			}
			data, err := p.Get(tc.ctx, win, target, offset, count)
			if err != nil {
				return Value{}, err
			}
			buf.write(data)
			return intVal(0), nil
		}
	}
}

func lowerWinFence(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "i")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		winID := a.n[0]
		win := tc.in.world.Window(winID)
		if win == nil {
			return Value{}, runtimeError(c.Line, "MPI_Win_fence: unknown window %d", winID)
		}
		tc.wrapRMA(c, trace.CallWinFence, -1, winID)
		return intVal(0), tc.in.proc.Fence(tc.ctx, win)
	}
}

// lowerSendrecv lowers
// MPI_Sendrecv(sendbuf, scount, dest, stag, recvbuf, rcount, source, rtag, comm).
func lowerSendrecv(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "biiibiiii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		scount, dest, stag := a.n[1], a.n[2], a.n[3]
		rcount, source, rtag, comm := a.n[5], a.n[6], a.n[7], a.n[8]
		rec := tc.wrapMPI(c, trace.CallSendrecv, source, rtag, comm, -1, -1)
		data, st, err := tc.in.proc.Sendrecv(tc.ctx, a.b[0].read(scount), dest, stag, source, rtag, mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagSend(rec)
		tc.tagMatch(rec, st)
		if rcount < len(data) {
			data = data[:rcount]
		}
		a.b[4].write(data)
		tc.status = st
		return intVal(0), nil
	}
}

// lowerAllgather lowers MPI_Allgather(send, count, recv, comm).
func lowerAllgather(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "bibi")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, comm := a.n[1], a.n[3]
		rec := tc.wrapMPI(c, trace.CallAllgather, -1, -1, comm, -1, -1)
		out, err := tc.in.proc.Allgather(tc.ctx, a.b[0].read(count), mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		a.b[2].write(out)
		return intVal(0), nil
	}
}

// lowerAlltoall lowers MPI_Alltoall(send, recv, count, comm).
func lowerAlltoall(l *lowerer, c *minic.Call) valFn {
	args := l.args(c, "bbii")
	return func(tc *threadCtx) (Value, error) {
		a, err := args(tc)
		if err != nil {
			return Value{}, err
		}
		count, comm := a.n[2], a.n[3]
		p := tc.in.proc
		rec := tc.wrapMPI(c, trace.CallAlltoall, -1, -1, comm, -1, -1)
		out, err := p.Alltoall(tc.ctx, a.b[0].read(count*p.Size()), mpi.CommID(comm))
		if err != nil {
			return Value{}, err
		}
		tc.tagColl(rec)
		a.b[1].write(out)
		return intVal(0), nil
	}
}

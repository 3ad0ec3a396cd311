package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"home/internal/chaos"
	"home/internal/sim"
)

// Message is a point-to-point message in flight or queued at the
// receiver ("unexpected message queue" in MPI implementation terms).
type Message struct {
	Source  int
	Tag     int
	Comm    CommID
	Data    []float64
	Arrival int64 // virtual time the message reaches the receiver

	// SrcTID and SrcStamp identify the sending thread and its
	// schedule stamp when schedule record/replay is active (zero
	// otherwise). Together with Source they form the
	// host-schedule-independent message identity record/replay uses
	// to force match resolutions.
	SrcTID   int
	SrcStamp uint64

	// SendIx is the sending thread's always-on 1-based send index:
	// (Source, SrcTID, SendIx) identifies the message stably across
	// host schedules even when record/replay is off. Receive-side
	// statuses surface it so instrumentation can tag match edges.
	SendIx uint64
}

// msgID returns the record/replay identity of a message.
func msgID(m *Message) chaos.MsgID {
	return chaos.MsgID{Rank: m.Source, TID: m.SrcTID, Seq: m.SrcStamp}
}

// forcedMatch reports whether m is exactly the message a replayed
// selector was recorded to match. A zero id matches nothing: the
// recorded run never satisfied that selector.
func forcedMatch(m *Message, id chaos.MsgID) bool {
	return !id.Zero() && m.Source == id.Rank && m.SrcTID == id.TID && m.SrcStamp == id.Seq
}

// pendingRecv is a posted receive awaiting a matching message.
type pendingRecv struct {
	src  int
	tag  int
	comm CommID
	req  *Request

	// tid and mseq key the match resolution for schedule recording;
	// forced carries the recorded message identity during replay (the
	// original selector is kept: failure propagation semantics depend
	// on the posted source, not the realized one).
	tid    int
	mseq   uint64
	forced chaos.MsgID
}

// pendingProbe is a blocked Probe awaiting a matching message (the
// message is inspected, not consumed).
type pendingProbe struct {
	src  int
	tag  int
	comm CommID
	w    sim.Waiter // the Unpark payload is the matched *Message, nil when the source died

	tid    int
	mseq   uint64
	forced chaos.MsgID
}

// Request is a nonblocking-operation handle (MPI_Request). Completion
// state is guarded by the owning rank's mailbox mutex.
type Request struct {
	ID     int
	owner  *Proc
	isSend bool
	done   bool
	msg    *Message
	err    error       // completion error (rank failure)
	waiter *sim.Waiter // the Wait (or replayed Test) parked on the request
}

// resolveLocked completes the request with msg or err and unparks its
// waiter, if any. Caller holds the owner's mailbox mutex.
func (r *Request) resolveLocked(msg *Message, err error) {
	r.done, r.msg, r.err = true, msg, err
	if r.waiter != nil {
		r.owner.world.activity.Unpark(r.waiter, nil)
		r.waiter = nil
	}
}

// Proc is one simulated MPI process (rank). All of its threads share
// this handle, exactly as threads of a hybrid program share the MPI
// library state of their process.
type Proc struct {
	world *World
	rank  int

	// mainCtx is the root thread's context, set by World.Run.
	mainCtx *sim.Ctx

	// calls counts this rank's MPI calls for the crash-stop fault.
	calls atomic.Int64

	mu          sync.Mutex
	queue       []*Message
	recvs       []*pendingRecv
	probes      []*pendingProbe
	initialized bool
	finalized   bool
	level       int
	initTID     int
	nextReq     int
}

func newProc(w *World, rank int) *Proc {
	return &Proc{world: w, rank: rank, level: ThreadSingle}
}

// Rank returns the process rank in CommWorld.
func (p *Proc) Rank() int { return p.rank }

// Size returns the CommWorld size.
func (p *Proc) Size() int { return p.world.Size() }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// ThreadLevel returns the provided thread-support level.
func (p *Proc) ThreadLevel() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.level
}

// Init initializes MPI with MPI_THREAD_SINGLE (the legacy MPI_Init
// entry point of the paper's Figure 1 case study).
func (p *Proc) Init(ctx *sim.Ctx) error {
	_, err := p.InitThread(ctx, ThreadSingle)
	return err
}

// InitThread initializes MPI requesting the given thread level and
// returns the provided level (this simulator provides whatever is
// requested, as MPICH built with thread support does).
func (p *Proc) InitThread(ctx *sim.Ctx, required int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.initialized {
		return p.level, fmt.Errorf("%w on rank %d", ErrDoubleInit, p.rank)
	}
	if required < ThreadSingle || required > ThreadMultiple {
		required = ThreadSingle
	}
	p.initialized = true
	p.level = required
	p.initTID = ctx.TID
	ctx.Advance(p.world.costs.MPICallNs)
	return p.level, nil
}

// IsThreadMain reports whether the calling thread is the one that
// initialized MPI (MPI_Is_thread_main).
func (p *Proc) IsThreadMain(ctx *sim.Ctx) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.initialized && ctx.TID == p.initTID
}

// Finalize shuts down MPI for this rank. Further calls error.
func (p *Proc) Finalize(ctx *sim.Ctx) error {
	if err := p.chaosEnter(ctx, "MPI_Finalize"); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.initialized {
		return ErrNotInitialized
	}
	if p.finalized {
		return ErrFinalized
	}
	p.finalized = true
	ctx.Advance(p.world.costs.MPICallNs)
	return nil
}

// checkState validates that the rank may issue MPI calls.
func (p *Proc) checkState() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.initialized {
		return ErrNotInitialized
	}
	if p.finalized {
		return ErrFinalized
	}
	return nil
}

// Dead reports whether this rank has crash-stopped.
func (p *Proc) Dead() bool { return p.world.RankDead(p.rank) }

// chaosEnter is the crash-stop hook at the top of every communication
// call: it charges the call against the rank's crash budget and fails
// the call outright once the rank is dead. With schedule record/replay
// active it is also a failure-observation point: which thread of a
// rank observes the (host-racy) shared call counter trip is recorded,
// and replay returns the recorded outcome instead of consulting the
// live state.
func (p *Proc) chaosEnter(ctx *sim.Ctx, op string) error {
	w := p.world
	if w.chaos == nil {
		return nil
	}
	if !w.chaos.SchedActive() {
		if w.RankDead(p.rank) {
			return w.failure(p.rank, op)
		}
		if cp := w.chaos.CrashPoint(p.rank); cp >= 0 && p.calls.Add(1) >= cp {
			w.MarkRankDead(p.rank)
			return w.failure(p.rank, op)
		}
		return nil
	}
	q := ctx.NextSchedSeq()
	if w.chaos.Replaying() {
		if dead, ok := w.chaos.ReplayFail(p.rank, ctx.TID, q); ok {
			return w.failure(dead, op)
		}
		return nil
	}
	if w.RankDead(p.rank) {
		w.chaos.ObserveFail(p.rank, ctx.TID, q, p.rank)
		return w.failure(p.rank, op)
	}
	if cp := w.chaos.CrashPoint(p.rank); cp >= 0 && p.calls.Add(1) >= cp {
		w.MarkRankDead(p.rank)
		w.chaos.ObserveFail(p.rank, ctx.TID, q, p.rank)
		return w.failure(p.rank, op)
	}
	return nil
}

// schedPoint allocates the thread's next schedule point when
// record/replay is active (0 otherwise). Points must be allocated
// unconditionally at fixed code sites — never inside a racy branch —
// so record and replay runs walk identical per-thread sequences.
func (p *Proc) schedPoint(ctx *sim.Ctx) uint64 {
	if !p.world.chaos.SchedActive() {
		return 0
	}
	return ctx.NextSchedSeq()
}

// replayFailAt returns the recorded failure outcome at a schedule
// point during replay.
func (p *Proc) replayFailAt(ctx *sim.Ctx, q uint64) (int, bool) {
	if !p.world.chaos.Replaying() {
		return 0, false
	}
	return p.world.chaos.ReplayFail(p.rank, ctx.TID, q)
}

// observeFailAt records a failure observation when recording; err is
// inspected for the blamed rank.
func (p *Proc) observeFailAt(ctx *sim.Ctx, q uint64, err error) {
	if err != nil && p.world.chaos.Recording() {
		var rfe *RankFailureError
		if errors.As(err, &rfe) {
			p.world.chaos.ObserveFail(p.rank, ctx.TID, q, rfe.Rank)
		}
	}
}

// failWaitersFor wakes this (surviving) rank's blocked operations that
// only the dead rank could satisfy: posted receives and probes
// selecting it by explicit source. Wildcard operations are left alone —
// another sender may still satisfy them, and if none does the deadlock
// watchdog reports the hang, which is the defined degradation.
func (p *Proc) failWaitersFor(dead int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	keptR := p.recvs[:0]
	for _, r := range p.recvs {
		if r.src == dead {
			r.req.resolveLocked(nil, p.world.failure(dead, "MPI_Recv"))
			continue
		}
		keptR = append(keptR, r)
	}
	p.recvs = keptR
	keptP := p.probes[:0]
	for _, pr := range p.probes {
		if pr.src == dead {
			p.world.activity.Unpark(&pr.w, nil)
			continue
		}
		keptP = append(keptP, pr)
	}
	p.probes = keptP
}

// threadGuard models the faithful misbehaviour of calls issued from
// non-main threads when the provided level forbids them. It returns
// (drop, hang): drop means the call silently does nothing (lost send),
// hang means the call blocks forever (it will be collected by the
// deadlock watchdog).
func (p *Proc) threadGuard(ctx *sim.Ctx, isSend bool) (drop, hang bool) {
	if !p.world.cfg.EnforceThreadLevel {
		return false, false
	}
	p.mu.Lock()
	level, initTID := p.level, p.initTID
	p.mu.Unlock()
	if level >= ThreadSerialized || ctx.TID == initTID {
		return false, false
	}
	// SINGLE or FUNNELED and not the main thread: undefined behaviour.
	// Sends vanish; completion-waiting calls never return.
	if isSend {
		return true, false
	}
	return false, true
}

// hangForever parks the calling thread until the deadlock watchdog
// trips (or the rank itself crash-stops), modelling undefined behaviour
// that manifests as a hang.
func (p *Proc) hangForever(ctx *sim.Ctx) error {
	qh := p.schedPoint(ctx)
	if dead, ok := p.replayFailAt(ctx, qh); ok {
		return p.world.failure(dead, "MPI call")
	}
	op := sim.Desc(p.rank, ctx.TID,
		"an MPI call issued from a non-main thread under "+ThreadLevelName(p.ThreadLevel())+" (undefined behaviour)")
	if p.world.activity.Park(new(sim.Waiter), op).How == sim.Deadlock {
		return p.deadlockError()
	}
	// Rank abort: nobody else will ever wake this thread.
	err := p.world.failure(p.rank, "MPI call")
	p.observeFailAt(ctx, qh, err)
	return err
}

// matches reports whether message m satisfies a (src, tag, comm)
// selector with wildcards.
func matches(m *Message, src, tag int, comm CommID) bool {
	if m.Comm != comm {
		return false
	}
	if src != AnySource && m.Source != src {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// deliver places a message at this rank: it first satisfies all
// pending probes that match, then the earliest-posted matching
// receive, and otherwise queues the message. reorder (chaos fault)
// asks for the message to jump ahead of queued messages from other
// sources; same-source order is always preserved, keeping the MPI
// non-overtaking rule intact. Called with p.mu held by the sender's
// goroutine.
func (p *Proc) deliverLocked(m *Message, reorder bool) {
	// Under replay, every pending selector matches only the exact
	// message it was recorded to match (selectors the recorded run
	// never satisfied match nothing); under recording, realized
	// matches are logged here, on the sender's goroutine, before the
	// waiter wakes.
	replaying := p.world.chaos.Replaying()
	recording := p.world.chaos.Recording()

	// Satisfy probes (they inspect, not consume).
	kept := p.probes[:0]
	for _, pr := range p.probes {
		hit := matches(m, pr.src, pr.tag, pr.comm)
		if replaying {
			hit = forcedMatch(m, pr.forced)
		}
		if hit {
			if recording {
				p.world.chaos.ObserveMatch(p.rank, pr.tid, pr.mseq, msgID(m))
			}
			p.world.st.probesMatched.Inc()
			p.world.activity.Unpark(&pr.w, m)
		} else {
			kept = append(kept, pr)
		}
	}
	p.probes = kept

	// Satisfy the earliest matching posted receive.
	for i, r := range p.recvs {
		hit := matches(m, r.src, r.tag, r.comm)
		if replaying {
			hit = forcedMatch(m, r.forced)
		}
		if hit {
			if recording {
				p.world.chaos.ObserveMatch(p.rank, r.tid, r.mseq, msgID(m))
			}
			p.recvs = append(p.recvs[:i], p.recvs[i+1:]...)
			p.world.st.msgsMatched.Inc()
			r.req.resolveLocked(m, nil)
			return
		}
	}
	if reorder {
		// Insert before the trailing run of other-source messages; an
		// earlier message from the same source is never overtaken.
		i := len(p.queue)
		for i > 0 && p.queue[i-1].Source != m.Source {
			i--
		}
		p.queue = append(p.queue, nil)
		copy(p.queue[i+1:], p.queue[i:])
		p.queue[i] = m
	} else {
		p.queue = append(p.queue, m)
	}
	p.world.st.queueHWM.Observe(int64(len(p.queue)))
}

// Send performs a blocking standard-mode send. The simulator's sends
// are eager: they complete locally once the message is handed to the
// destination's mailbox (as buffered sends of real MPI do for small
// messages).
func (p *Proc) Send(ctx *sim.Ctx, data []float64, dest, tag int, comm CommID) error {
	if err := p.checkState(); err != nil {
		return err
	}
	if err := p.chaosEnter(ctx, "MPI_Send"); err != nil {
		return err
	}
	if dest < 0 || dest >= p.world.Size() {
		return fmt.Errorf("%w: dest %d", ErrInvalidRank, dest)
	}
	if _, err := p.world.comm(comm); err != nil {
		return err
	}
	qf := p.schedPoint(ctx)
	if dead, ok := p.replayFailAt(ctx, qf); ok {
		return p.world.failure(dead, "MPI_Send")
	}
	if !p.world.chaos.Replaying() && p.world.RankDead(dest) {
		err := p.world.failure(dest, "MPI_Send")
		p.observeFailAt(ctx, qf, err)
		return err
	}
	if drop, hang := p.threadGuard(ctx, true); drop {
		ctx.Advance(p.world.costs.MPICallNs)
		return nil
	} else if hang {
		return p.hangForever(ctx)
	}
	c := p.world.costs
	ctx.Advance(c.MPICallNs)
	var fault chaos.SendFault
	if p.world.chaos != nil {
		fault = p.world.chaos.SendFault(p.rank, ctx.TID, ctx.NextChaosSeq())
		if fault.JitterWall > 0 {
			// Wall-clock pause only: perturbs which goroutine delivers
			// first without touching virtual time.
			time.Sleep(fault.JitterWall)
		}
		if fault.Retries > 0 {
			// Transient failures: each retry re-enters the library and
			// backs off in virtual time; the send always succeeds in the
			// end, so no message is ever lost.
			ctx.Advance(int64(fault.Retries) * (c.MPICallNs + fault.BackoffNs))
		}
	}
	p.world.st.sends.Inc()
	p.world.st.bytesMoved.Add(int64(len(data) * 8))
	payload := make([]float64, len(data))
	copy(payload, data)
	m := &Message{
		Source:  p.rank,
		Tag:     tag,
		Comm:    comm,
		Data:    payload,
		Arrival: ctx.Now + c.MsgLatencyNs + int64(len(data)*8)*c.MsgNsPerByte + fault.DelayNs,
		SrcTID:  ctx.TID,
		SendIx:  ctx.NextMsgSeq(),
	}
	// The stamp gives the message its record/replay identity; the
	// sending thread allocates it, so it is host-schedule-independent.
	m.SrcStamp = p.schedPoint(ctx)
	dst := p.world.procs[dest]
	dst.mu.Lock()
	dst.deliverLocked(m, fault.Reorder)
	dst.mu.Unlock()
	return nil
}

// Isend starts a nonblocking send. Because sends are eager, the
// returned request is already complete; Wait/Test on it succeed
// immediately.
func (p *Proc) Isend(ctx *sim.Ctx, data []float64, dest, tag int, comm CommID) (*Request, error) {
	if err := p.Send(ctx, data, dest, tag, comm); err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.nextReq++
	req := &Request{ID: p.nextReq, owner: p, isSend: true, done: true}
	p.mu.Unlock()
	return req, nil
}

// Irecv posts a nonblocking receive and returns its request handle.
func (p *Proc) Irecv(ctx *sim.Ctx, source, tag int, comm CommID) (*Request, error) {
	if err := p.checkState(); err != nil {
		return nil, err
	}
	if err := p.chaosEnter(ctx, "MPI_Irecv"); err != nil {
		return nil, err
	}
	if source != AnySource && (source < 0 || source >= p.world.Size()) {
		return nil, fmt.Errorf("%w: source %d", ErrInvalidRank, source)
	}
	if _, err := p.world.comm(comm); err != nil {
		return nil, err
	}
	ctx.Advance(p.world.costs.MPICallNs)
	if source == AnySource || tag == AnyTag {
		p.world.st.wildcardRecvs.Inc()
	}
	// Schedule points: qm keys the match resolution of this receive,
	// qf the dead-source failure check. Both are allocated on every
	// call so record and replay walk identical point sequences.
	qm := p.schedPoint(ctx)
	qf := p.schedPoint(ctx)
	replaying := p.world.chaos.Replaying()
	var forced chaos.MsgID
	if replaying {
		forced, _ = p.world.chaos.ReplayMatch(p.rank, ctx.TID, qm)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextReq++
	req := &Request{ID: p.nextReq, owner: p}
	// Check the unexpected-message queue first.
	for i, m := range p.queue {
		hit := matches(m, source, tag, comm)
		if replaying {
			hit = forcedMatch(m, forced)
		}
		if hit {
			if p.world.chaos.Recording() {
				p.world.chaos.ObserveMatch(p.rank, ctx.TID, qm, msgID(m))
			}
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			p.world.st.msgsMatched.Inc()
			req.done = true
			req.msg = m
			return req, nil
		}
	}
	// The queue scan above runs first so messages sent before a crash
	// are still received; only then does an explicit selection of a
	// dead source fail.
	if replaying {
		if dead, ok := p.world.chaos.ReplayFail(p.rank, ctx.TID, qf); ok {
			return nil, p.world.failure(dead, "MPI_Irecv")
		}
	} else if source != AnySource && p.world.RankDead(source) {
		err := p.world.failure(source, "MPI_Irecv")
		p.observeFailAt(ctx, qf, err)
		return nil, err
	}
	p.recvs = append(p.recvs, &pendingRecv{
		src: source, tag: tag, comm: comm, req: req,
		tid: ctx.TID, mseq: qm, forced: forced,
	})
	return req, nil
}

// Wait blocks until the request completes and returns the message
// status (empty for send requests).
func (p *Proc) Wait(ctx *sim.Ctx, req *Request) (Status, error) {
	if err := p.checkState(); err != nil {
		return Status{}, err
	}
	if err := p.chaosEnter(ctx, "MPI_Wait"); err != nil {
		return Status{}, err
	}
	if _, hang := p.threadGuard(ctx, false); hang {
		return Status{}, p.hangForever(ctx)
	}
	ctx.Advance(p.world.costs.MPICallNs)
	p.world.chaos.StallThread(ctx)
	qf := p.schedPoint(ctx)
	if dead, ok := p.replayFailAt(ctx, qf); ok {
		// The recorded wait observed a rank failure. Withdraw the
		// pending receive (propagation is suppressed in replay, so no
		// waker will) and reproduce the failure.
		err := p.world.failure(dead, "MPI_Wait")
		p.completeFailedLocked(req, err)
		return Status{}, err
	}
	p.mu.Lock()
	if req.done {
		msg, rerr := req.msg, req.err
		p.mu.Unlock()
		if rerr != nil {
			p.observeFailAt(ctx, qf, rerr)
			return Status{}, rerr
		}
		return finishRecv(ctx, req, msg), nil
	}
	w := new(sim.Waiter)
	req.waiter = w
	// The pending receive carries the request's selector; report it in
	// the wait-for table.
	op := sim.BlockedOp{
		Rank: p.rank, TID: ctx.TID, Op: "MPI_Wait",
		Peer: sim.NoArg, Tag: sim.NoArg, Comm: sim.NoArg,
		Detail: fmt.Sprintf("MPI_Wait on request #%d (incomplete receive)", req.ID),
	}
	for _, r := range p.recvs {
		if r.req == req {
			op.Peer, op.Tag, op.Comm = r.src, r.tag, int(r.comm)
			break
		}
	}
	p.mu.Unlock()

	switch p.world.activity.Park(w, op).How {
	case sim.Deadlock:
		return Status{}, p.deadlockError()
	case sim.Aborted:
		// Rank abort (own crash-stop): the wait fails, withdrawing the
		// pending receive if no waker completed the request.
		p.mu.Lock()
		p.dropRecvLocked(req)
		p.mu.Unlock()
		err := p.world.failure(p.rank, "MPI_Wait")
		p.observeFailAt(ctx, qf, err)
		return Status{}, err
	}
	p.mu.Lock()
	msg, rerr := req.msg, req.err
	p.mu.Unlock()
	if rerr != nil {
		p.observeFailAt(ctx, qf, rerr)
		return Status{}, rerr
	}
	return finishRecv(ctx, req, msg), nil
}

// dropRecvLocked withdraws the request's pending receive, if any.
func (p *Proc) dropRecvLocked(req *Request) {
	for i, r := range p.recvs {
		if r.req == req {
			p.recvs = append(p.recvs[:i], p.recvs[i+1:]...)
			return
		}
	}
}

// completeFailedLocked marks a replayed request as failed, withdrawing
// its pending receive (no waker will, with propagation suppressed).
func (p *Proc) completeFailedLocked(req *Request, err error) {
	p.mu.Lock()
	p.dropRecvLocked(req)
	req.resolveLocked(nil, err)
	p.mu.Unlock()
}

// Test polls the request; ok reports completion. Polling outcomes
// depend on host-racy queue state, so under record/replay each poll is
// a schedule point: a recorded completion forces the replayed poll to
// wait for the (forced) match, and a recorded miss forces a miss.
func (p *Proc) Test(ctx *sim.Ctx, req *Request) (ok bool, st Status, err error) {
	if err := p.checkState(); err != nil {
		return false, Status{}, err
	}
	if err := p.chaosEnter(ctx, "MPI_Test"); err != nil {
		return false, Status{}, err
	}
	ctx.Advance(p.world.costs.MPICallNs)
	qt := p.schedPoint(ctx)
	if p.world.chaos.Replaying() {
		if dead, ok := p.world.chaos.ReplayFail(p.rank, ctx.TID, qt); ok {
			ferr := p.world.failure(dead, "MPI_Test")
			p.completeFailedLocked(req, ferr)
			return false, Status{}, ferr
		}
		if _, ok := p.world.chaos.ReplayPoll(p.rank, ctx.TID, qt); !ok {
			return false, Status{}, nil
		}
		// The recorded test observed completion: wait (host time only,
		// invisible to virtual clocks) for the forced match to deliver.
		p.mu.Lock()
		if req.done {
			msg := req.msg
			p.mu.Unlock()
			return true, finishRecv(ctx, req, msg), nil
		}
		w := new(sim.Waiter)
		req.waiter = w
		p.mu.Unlock()
		if p.world.activity.Park(w, sim.BlockedOp{
			Rank: p.rank, TID: ctx.TID, Op: "MPI_Test",
			Peer: sim.NoArg, Tag: sim.NoArg, Comm: sim.NoArg,
			Detail: fmt.Sprintf("MPI_Test on request #%d (replay: forcing recorded completion)", req.ID),
		}).How != sim.Unparked {
			// Only a genuine global deadlock ends the wait in replay
			// (rank aborts are suppressed) — a schedule/program
			// mismatch; degrade like any other hang.
			return false, Status{}, p.deadlockError()
		}
		p.mu.Lock()
		msg := req.msg
		p.mu.Unlock()
		return true, finishRecv(ctx, req, msg), nil
	}
	p.mu.Lock()
	done, msg, rerr := req.done, req.msg, req.err
	p.mu.Unlock()
	if !done {
		return false, Status{}, nil
	}
	if rerr != nil {
		p.observeFailAt(ctx, qt, rerr)
		return false, Status{}, rerr
	}
	if p.world.chaos.Recording() {
		p.world.chaos.ObservePoll(p.rank, ctx.TID, qt, chaos.MsgID{})
	}
	return true, finishRecv(ctx, req, msg), nil
}

// statusOf builds a message's status, carrying its stable send
// identity for match-edge tagging.
func statusOf(msg *Message) Status {
	return Status{
		Source: msg.Source, Tag: msg.Tag, Count: len(msg.Data),
		SrcTID: msg.SrcTID, SendIx: msg.SendIx,
	}
}

// finishRecv advances the receiver clock to the message arrival and
// builds the status.
func finishRecv(ctx *sim.Ctx, req *Request, msg *Message) Status {
	if msg == nil {
		return Status{Source: -1, Tag: -1}
	}
	ctx.SyncTo(msg.Arrival)
	return statusOf(msg)
}

// Data returns the payload of a completed receive request (nil for
// sends or incomplete requests).
func (r *Request) Data() []float64 {
	r.owner.mu.Lock()
	defer r.owner.mu.Unlock()
	if r.msg == nil {
		return nil
	}
	return r.msg.Data
}

// Done reports completion without consuming the request.
func (r *Request) Done() bool {
	r.owner.mu.Lock()
	defer r.owner.mu.Unlock()
	return r.done
}

// Recv performs a blocking receive: Irecv followed by Wait.
func (p *Proc) Recv(ctx *sim.Ctx, source, tag int, comm CommID) ([]float64, Status, error) {
	if _, hang := p.threadGuard(ctx, false); hang {
		return nil, Status{}, p.hangForever(ctx)
	}
	req, err := p.Irecv(ctx, source, tag, comm)
	if err != nil {
		return nil, Status{}, err
	}
	st, err := p.Wait(ctx, req)
	if err != nil {
		return nil, Status{}, err
	}
	return req.Data(), st, nil
}

// Probe blocks until a message matching (source, tag, comm) is
// available and returns its status without consuming it.
func (p *Proc) Probe(ctx *sim.Ctx, source, tag int, comm CommID) (Status, error) {
	if err := p.checkState(); err != nil {
		return Status{}, err
	}
	if err := p.chaosEnter(ctx, "MPI_Probe"); err != nil {
		return Status{}, err
	}
	if _, hang := p.threadGuard(ctx, false); hang {
		return Status{}, p.hangForever(ctx)
	}
	ctx.Advance(p.world.costs.MPICallNs)
	p.world.chaos.StallThread(ctx)
	qm := p.schedPoint(ctx)
	qf := p.schedPoint(ctx)
	replaying := p.world.chaos.Replaying()
	var forced chaos.MsgID
	if replaying {
		if dead, ok := p.world.chaos.ReplayFail(p.rank, ctx.TID, qf); ok {
			return Status{}, p.world.failure(dead, "MPI_Probe")
		}
		forced, _ = p.world.chaos.ReplayMatch(p.rank, ctx.TID, qm)
	}
	p.mu.Lock()
	for _, m := range p.queue {
		hit := matches(m, source, tag, comm)
		if replaying {
			hit = forcedMatch(m, forced)
		}
		if hit {
			if p.world.chaos.Recording() {
				p.world.chaos.ObserveMatch(p.rank, ctx.TID, qm, msgID(m))
			}
			p.mu.Unlock()
			ctx.SyncTo(m.Arrival)
			return statusOf(m), nil
		}
	}
	// Queued pre-crash messages (above) still probe successfully; an
	// explicit selection of a dead source with nothing queued fails.
	if !replaying && source != AnySource && p.world.RankDead(source) {
		p.mu.Unlock()
		err := p.world.failure(source, "MPI_Probe")
		p.observeFailAt(ctx, qf, err)
		return Status{}, err
	}
	pr := &pendingProbe{
		src: source, tag: tag, comm: comm,
		tid: ctx.TID, mseq: qm, forced: forced,
	}
	p.probes = append(p.probes, pr)
	p.mu.Unlock()

	wk := p.world.activity.Park(&pr.w, sim.BlockedOp{
		Rank: p.rank, TID: ctx.TID, Op: "MPI_Probe",
		Peer: source, Tag: tag, Comm: int(comm),
		Detail: fmt.Sprintf("MPI_Probe(source=%d, tag=%d, comm=%d)", source, tag, int(comm)),
	})
	switch wk.How {
	case sim.Deadlock:
		return Status{}, p.deadlockError()
	case sim.Aborted:
		// Rank abort (own crash-stop): the probe fails. Withdraw it
		// unless a waker already dequeued it.
		p.mu.Lock()
		for i, q := range p.probes {
			if q == pr {
				p.probes = append(p.probes[:i], p.probes[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		err := p.world.failure(p.rank, "MPI_Probe")
		p.observeFailAt(ctx, qf, err)
		return Status{}, err
	}
	m, _ := wk.Payload.(*Message)
	if m == nil {
		// Woken by failWaitersFor: the probed source crash-stopped.
		err := p.world.failure(source, "MPI_Probe")
		p.observeFailAt(ctx, qf, err)
		return Status{}, err
	}
	ctx.SyncTo(m.Arrival)
	return statusOf(m), nil
}

// Iprobe checks nonblockingly for a matching message.
func (p *Proc) Iprobe(ctx *sim.Ctx, source, tag int, comm CommID) (bool, Status, error) {
	if err := p.checkState(); err != nil {
		return false, Status{}, err
	}
	if err := p.chaosEnter(ctx, "MPI_Iprobe"); err != nil {
		return false, Status{}, err
	}
	ctx.Advance(p.world.costs.MPICallNs)
	qp := p.schedPoint(ctx)
	if p.world.chaos.Replaying() {
		return p.replayIprobe(ctx, qp)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.queue {
		if matches(m, source, tag, comm) && m.Arrival <= ctx.Now {
			if p.world.chaos.Recording() {
				p.world.chaos.ObservePoll(p.rank, ctx.TID, qp, msgID(m))
			}
			return true, statusOf(m), nil
		}
	}
	if source != AnySource && p.world.RankDead(source) {
		err := p.world.failure(source, "MPI_Iprobe")
		p.observeFailAt(ctx, qp, err)
		return false, Status{}, err
	}
	return false, Status{}, nil
}

// replayIprobe forces the recorded outcome of a non-blocking probe:
// a recorded miss stays a miss (even if a matching message happens to
// be queued), and a recorded hit waits — in host time only — for the
// recorded message if it has not been delivered yet. Queue state at a
// poll is host-racy, so without forcing, replayed polls would diverge.
func (p *Proc) replayIprobe(ctx *sim.Ctx, qp uint64) (bool, Status, error) {
	if dead, ok := p.world.chaos.ReplayFail(p.rank, ctx.TID, qp); ok {
		return false, Status{}, p.world.failure(dead, "MPI_Iprobe")
	}
	id, ok := p.world.chaos.ReplayPoll(p.rank, ctx.TID, qp)
	if !ok {
		return false, Status{}, nil
	}
	p.mu.Lock()
	for _, m := range p.queue {
		if forcedMatch(m, id) {
			p.mu.Unlock()
			return true, statusOf(m), nil
		}
	}
	pr := &pendingProbe{src: AnySource, tag: AnyTag, comm: CommWorld, forced: id}
	p.probes = append(p.probes, pr)
	p.mu.Unlock()

	wk := p.world.activity.Park(&pr.w, sim.BlockedOp{
		Rank: p.rank, TID: ctx.TID, Op: "MPI_Iprobe",
		Peer: sim.NoArg, Tag: sim.NoArg, Comm: sim.NoArg,
		Detail: "MPI_Iprobe (replay: forcing recorded hit)",
	})
	if wk.How != sim.Unparked {
		return false, Status{}, p.deadlockError()
	}
	return true, statusOf(wk.Payload.(*Message)), nil
}

// QueuedMessages returns the number of unexpected messages currently
// queued at this rank (diagnostic; used in tests).
func (p *Proc) QueuedMessages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

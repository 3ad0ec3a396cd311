package mpi

import (
	"fmt"
	"sync"

	"home/internal/chaos"
	"home/internal/sim"
)

// collKind enumerates collective operations for instance matching.
type collKind int

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAlltoall
	collAllgather
	collCommDup
)

func (k collKind) String() string {
	switch k {
	case collBarrier:
		return "Barrier"
	case collBcast:
		return "Bcast"
	case collReduce:
		return "Reduce"
	case collAllreduce:
		return "Allreduce"
	case collGather:
		return "Gather"
	case collScatter:
		return "Scatter"
	case collAlltoall:
		return "Alltoall"
	case collAllgather:
		return "Allgather"
	case collCommDup:
		return "Comm_dup"
	}
	return fmt.Sprintf("collKind(%d)", int(k))
}

// collResult is what each participant receives when an instance
// completes (or fails: err set means a participant crash-stopped).
type collResult struct {
	data    []float64
	release int64
	newComm CommID
	err     error
}

// collWaiter is a blocked participant. Whoever resolves the instance
// (its completer or failAll) stores the result in res and unparks w,
// under cs.mu.
type collWaiter struct {
	rank int
	w    sim.Waiter
	res  collResult
}

// collJoin remembers one participant's arrival for the membership
// record: its schedule point and arrival order. Joins are logged to
// the schedule only when the instance *completes* — an instance
// abandoned on a crash path leaves no membership records, so a
// replayed crash can never re-join it.
type collJoin struct {
	rank int
	tid  int
	seq  uint64
}

// collInstance is one in-progress collective operation. Participants
// join the first open instance of matching (kind, root, op) that has
// not yet seen their rank; mismatched programs therefore strand
// instances that never complete, which the deadlock watchdog reports —
// the same observable behaviour as a real mismatched collective.
type collInstance struct {
	kind    collKind
	root    int
	op      ReduceOp
	arrived map[int][]float64
	maxT    int64
	waiters []*collWaiter

	// seq is the instance's 1-based number within its communicator,
	// assigned at creation. All participants observe it (via
	// sim.Ctx.LastCollSeq), giving the timeline export a stable
	// identity to group an instance's call records under.
	seq int64

	// joins tracks arrivals in order for the membership records
	// (maintained only while recording a schedule).
	joins []collJoin

	// forced marks an instance reconstructed from recorded membership
	// during replay; unforced arrivals (which the recorded run left
	// stranded) never join it, so they cannot complete an instance
	// early with the wrong membership.
	forced bool

	// forcedNewComm is the recorded duplicated-communicator id of a
	// replayed Comm_dup instance (from the membership records).
	forcedNewComm CommID
}

// commState is the shared state of one communicator.
type commState struct {
	id      CommID
	size    int
	mu      sync.Mutex
	pending []*collInstance

	// instSeq counts collective instances created on this
	// communicator (guarded by mu).
	instSeq int64

	// forcedInst indexes replay-forced instances by their recorded
	// instance seq (guarded by mu; lazily allocated).
	forcedInst map[int64]*collInstance
}

func newCommState(id CommID, size int) *commState {
	return &commState{id: id, size: size}
}

// arrive joins the calling rank into a collective instance, blocking
// until all ranks of the communicator have arrived.
func (p *Proc) arrive(ctx *sim.Ctx, comm CommID, kind collKind, root int, op ReduceOp, data []float64) (collResult, error) {
	if err := p.checkState(); err != nil {
		return collResult{}, err
	}
	if err := p.chaosEnter(ctx, "MPI_"+kind.String()); err != nil {
		return collResult{}, err
	}
	if _, hang := p.threadGuard(ctx, false); hang {
		return collResult{}, p.hangForever(ctx)
	}
	cs, err := p.world.comm(comm)
	if err != nil {
		return collResult{}, err
	}
	c := p.world.costs
	ctx.Advance(c.MPICallNs)
	p.world.chaos.StallThread(ctx)

	// One schedule point covers every outcome of the collective: the
	// fail-fast below, a failAll wake and the own-abort withdrawal all
	// race with crash propagation in a recorded run, and which open
	// instance the arrival joins is host-racy when several threads of a
	// rank hit collectives concurrently. A schedule carries a coll
	// (membership) record for every arrival that completed an instance
	// and a fail record for every arrival that observed a failure;
	// absence of both means the recorded run left the arrival stranded.
	// Replay therefore forces the recorded outcome here and never joins
	// an instance the recorded run abandoned — membership is recorded
	// at instance *completion*, so an abandoned instance has no
	// membership records for a replayed crash to re-join.
	qf := p.schedPoint(ctx)

	payload := make([]float64, len(data))
	copy(payload, data)

	if p.world.chaos.Replaying() {
		if jo, ok := p.world.chaos.ReplayCollJoin(p.rank, ctx.TID, qf); ok {
			return p.arriveForced(ctx, cs, kind, root, op, payload, jo, qf)
		}
		if dead, ok := p.replayFailAt(ctx, qf); ok {
			return collResult{}, p.world.failure(dead, "MPI_"+kind.String())
		}
		// No record at this point: an arrival the recorded run left
		// stranded, which strands here too (an unforced instance can
		// never complete in place of a forced one: forced instances
		// live in their own index).
	}

	cs.mu.Lock()
	// Checked under cs.mu so it serializes against failAll: either we
	// see the dead rank here and fail fast, or our waiter registers
	// before failAll drains the instance and wakes it with the error.
	if !p.world.chaos.Replaying() && p.world.AnyRankDead() {
		cs.mu.Unlock()
		ferr := p.world.failure(p.world.firstDead(), "MPI_"+kind.String())
		p.observeFailAt(ctx, qf, ferr)
		return collResult{}, ferr
	}
	var inst *collInstance
	for _, in := range cs.pending {
		if in.kind == kind && in.root == root && in.op == op {
			if _, dup := in.arrived[p.rank]; !dup {
				inst = in
				break
			}
		}
	}
	if inst == nil {
		cs.instSeq++
		inst = &collInstance{kind: kind, root: root, op: op, arrived: make(map[int][]float64), seq: cs.instSeq}
		cs.pending = append(cs.pending, inst)
	}
	// Publish the instance identity to the calling thread; the
	// interpreter reads it after the call to tag the instrumentation
	// record (the Ctx is thread-owned, so this is race-free).
	ctx.LastCollSeq = inst.seq
	inst.arrived[p.rank] = payload
	if ctx.Now > inst.maxT {
		inst.maxT = ctx.Now
	}
	if p.world.chaos.Recording() {
		inst.joins = append(inst.joins, collJoin{rank: p.rank, tid: ctx.TID, seq: qf})
	}

	if len(inst.arrived) == cs.size {
		// Last arriver completes the instance and releases everyone.
		mine := p.completeLocked(cs, inst)
		cs.mu.Unlock()
		ctx.SyncTo(mine.release)
		return mine, nil
	}

	return p.awaitLocked(ctx, cs, inst, qf)
}

// awaitLocked parks the calling rank in inst until the instance
// resolves. Caller holds cs.mu, which awaitLocked releases.
func (p *Proc) awaitLocked(ctx *sim.Ctx, cs *commState, inst *collInstance, qf uint64) (collResult, error) {
	cw := &collWaiter{rank: p.rank}
	inst.waiters = append(inst.waiters, cw)
	cs.mu.Unlock()

	name := "MPI_" + inst.kind.String()
	switch p.world.activity.Park(&cw.w, sim.BlockedOp{
		Rank: p.rank, TID: ctx.TID, Op: name,
		Peer: sim.NoArg, Tag: sim.NoArg, Comm: int(cs.id),
		Detail: fmt.Sprintf("%s on communicator %d (waiting for all ranks)", name, int(cs.id)),
	}).How {
	case sim.Deadlock:
		return collResult{}, p.deadlockError()
	case sim.Aborted:
		// Rank abort (own crash-stop): withdraw from the instance. If
		// the waiter is still queued the cleanup is ours; the recorded
		// run then abandoned the instance, whose members leave no
		// membership records, so a replayed crash fails at qf before
		// ever joining it.
		cs.mu.Lock()
		withdrawn := inst.withdrawLocked(cw, ctx.TID, qf)
		cs.mu.Unlock()
		if withdrawn {
			ferr := p.world.failure(p.rank, name)
			p.observeFailAt(ctx, qf, ferr)
			return collResult{}, ferr
		}
		// The waiter is gone: the crash raced a concurrent resolution,
		// the completing rank's release or failAll's error. Take what
		// actually happened so the recorded schedule reflects reality:
		// a completed instance counted this rank's membership and
		// clock, so the member must complete here too — in record and
		// in replay.
	}
	if cw.res.err != nil {
		p.observeFailAt(ctx, qf, cw.res.err)
		return collResult{}, cw.res.err
	}
	ctx.SyncTo(cw.res.release)
	return cw.res, nil
}

// withdrawLocked takes an aborted waiter out of the instance, with its
// arrival and join record. It reports false when the instance already
// resolved the waiter. Caller holds cs.mu.
func (inst *collInstance) withdrawLocked(cw *collWaiter, tid int, qf uint64) bool {
	for i, x := range inst.waiters {
		if x != cw {
			continue
		}
		inst.waiters = append(inst.waiters[:i], inst.waiters[i+1:]...)
		delete(inst.arrived, cw.rank)
		for j, jn := range inst.joins {
			if jn.rank == cw.rank && jn.tid == tid && jn.seq == qf {
				inst.joins = append(inst.joins[:j], inst.joins[j+1:]...)
				break
			}
		}
		return true
	}
	return false
}

// arriveForced joins the collective instance the recorded run assigned
// this arrival to (schedule replay). Membership is fixed by the
// schedule: the instance completes exactly when the last recorded
// member arrives, so maxT and the release time — and with them virtual
// time — reproduce the recorded run.
func (p *Proc) arriveForced(ctx *sim.Ctx, cs *commState, kind collKind, root int, op ReduceOp, payload []float64, jo chaos.CollOrder, qf uint64) (collResult, error) {
	cs.mu.Lock()
	if cs.forcedInst == nil {
		cs.forcedInst = make(map[int64]*collInstance)
	}
	inst := cs.forcedInst[jo.Seq]
	if inst == nil {
		inst = &collInstance{
			kind: kind, root: root, op: op,
			arrived: make(map[int][]float64),
			seq:     jo.Seq, forced: true, forcedNewComm: CommID(jo.NewComm),
		}
		cs.forcedInst[jo.Seq] = inst
		// Keep live numbering above every forced seq so an instance a
		// stranded (unforced) arrival opens never collides with a
		// recorded one.
		if jo.Seq > cs.instSeq {
			cs.instSeq = jo.Seq
		}
	}
	ctx.LastCollSeq = inst.seq
	inst.arrived[p.rank] = payload
	if ctx.Now > inst.maxT {
		inst.maxT = ctx.Now
	}
	if len(inst.arrived) == cs.size {
		mine := p.completeLocked(cs, inst)
		cs.mu.Unlock()
		ctx.SyncTo(mine.release)
		return mine, nil
	}
	return p.awaitLocked(ctx, cs, inst, qf)
}

// completeLocked finishes a full instance (len(arrived) == cs.size):
// removes it from the pending/forced indexes, computes the release
// time and per-rank results, logs the membership order when a schedule
// recorder is attached, and wakes the blocked participants. The caller
// holds cs.mu and is the instance's last arriver; the returned result
// is the caller's own (SyncTo is the caller's job, after unlocking).
func (p *Proc) completeLocked(cs *commState, inst *collInstance) collResult {
	for i, in := range cs.pending {
		if in == inst {
			cs.pending = append(cs.pending[:i], cs.pending[i+1:]...)
			break
		}
	}
	if inst.forced {
		delete(cs.forcedInst, inst.seq)
	}
	p.world.st.collectiveRounds.Inc()
	c := p.world.costs
	release := inst.maxT + c.CollectiveBaseNs + c.CollectiveNsPerRank*sim.Log2Ceil(cs.size)
	var newComm CommID
	if inst.kind == collCommDup {
		if inst.forced {
			newComm = p.world.ensureComm(inst.forcedNewComm, cs.size)
		} else {
			newComm = p.world.newCommID(cs.size)
		}
	}
	if p.world.chaos.Recording() {
		nc := -1
		if inst.kind == collCommDup {
			nc = int(newComm)
		}
		for i, j := range inst.joins {
			p.world.chaos.ObserveCollJoin(j.rank, j.tid, j.seq, chaos.CollOrder{
				Comm: int(cs.id), Seq: inst.seq, Ord: i + 1, NewComm: nc,
			})
		}
	}
	results := computeCollective(inst, cs.size)
	for _, cw := range inst.waiters {
		cw.res = collResult{data: results[cw.rank], release: release, newComm: newComm}
		p.world.activity.Unpark(&cw.w, nil)
	}
	inst.waiters = nil
	return collResult{data: results[p.rank], release: release, newComm: newComm}
}

// failAll drains every pending collective instance of the
// communicator: with the dead rank gone none of them can ever
// complete, so every blocked participant wakes with a rank-failure
// error instead of hanging until the watchdog.
func (cs *commState) failAll(w *World, dead int) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, inst := range cs.pending {
		for _, cw := range inst.waiters {
			cw.res = collResult{err: w.failure(dead, "MPI_"+inst.kind.String())}
			w.activity.Unpark(&cw.w, nil)
		}
		inst.waiters = nil
	}
	cs.pending = nil
}

// computeCollective produces the per-rank result vectors for a
// completed instance.
func computeCollective(inst *collInstance, size int) map[int][]float64 {
	out := make(map[int][]float64, size)
	switch inst.kind {
	case collBarrier, collCommDup:
		// No data movement.
	case collBcast:
		rootData := inst.arrived[inst.root]
		for r := 0; r < size; r++ {
			d := make([]float64, len(rootData))
			copy(d, rootData)
			out[r] = d
		}
	case collReduce, collAllreduce:
		acc := make([]float64, len(inst.arrived[0]))
		copy(acc, inst.arrived[0])
		for r := 1; r < size; r++ {
			inst.op.apply(acc, inst.arrived[r])
		}
		if inst.kind == collAllreduce {
			for r := 0; r < size; r++ {
				d := make([]float64, len(acc))
				copy(d, acc)
				out[r] = d
			}
		} else {
			out[inst.root] = acc
		}
	case collGather, collAllgather:
		var all []float64
		for r := 0; r < size; r++ {
			all = append(all, inst.arrived[r]...)
		}
		if inst.kind == collAllgather {
			for r := 0; r < size; r++ {
				d := make([]float64, len(all))
				copy(d, all)
				out[r] = d
			}
		} else {
			out[inst.root] = all
		}
	case collScatter:
		rootData := inst.arrived[inst.root]
		chunk := len(rootData) / size
		for r := 0; r < size; r++ {
			d := make([]float64, chunk)
			copy(d, rootData[r*chunk:(r+1)*chunk])
			out[r] = d
		}
	case collAlltoall:
		// Each rank contributes size equal chunks; rank i receives the
		// i-th chunk of every rank, ordered by source.
		chunk := 0
		if len(inst.arrived[0]) > 0 {
			chunk = len(inst.arrived[0]) / size
		}
		for r := 0; r < size; r++ {
			var d []float64
			for s := 0; s < size; s++ {
				src := inst.arrived[s]
				if chunk > 0 && len(src) >= (r+1)*chunk {
					d = append(d, src[r*chunk:(r+1)*chunk]...)
				}
			}
			out[r] = d
		}
	}
	return out
}

// Barrier blocks until all ranks of comm arrive.
func (p *Proc) Barrier(ctx *sim.Ctx, comm CommID) error {
	_, err := p.arrive(ctx, comm, collBarrier, 0, OpSum, nil)
	return err
}

// Bcast broadcasts root's data to all ranks; every rank receives the
// root buffer (the root passes its payload, others pass nil).
func (p *Proc) Bcast(ctx *sim.Ctx, data []float64, root int, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collBcast, root, OpSum, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Reduce folds all ranks' data with op; only root receives the result.
func (p *Proc) Reduce(ctx *sim.Ctx, data []float64, op ReduceOp, root int, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collReduce, root, op, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Allreduce folds all ranks' data with op; every rank receives the
// result.
func (p *Proc) Allreduce(ctx *sim.Ctx, data []float64, op ReduceOp, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collAllreduce, 0, op, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Gather concatenates all ranks' data at root (rank order).
func (p *Proc) Gather(ctx *sim.Ctx, data []float64, root int, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collGather, root, OpSum, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Scatter splits root's data into equal chunks, one per rank.
func (p *Proc) Scatter(ctx *sim.Ctx, data []float64, root int, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collScatter, root, OpSum, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Alltoall exchanges equal chunks among all ranks.
func (p *Proc) Alltoall(ctx *sim.Ctx, data []float64, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collAlltoall, 0, OpSum, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// CommDup collectively duplicates a communicator and returns the new
// communicator id (the paper's recommended fix for collective-call and
// probe violations: give each thread its own communicator).
func (p *Proc) CommDup(ctx *sim.Ctx, comm CommID) (CommID, error) {
	res, err := p.arrive(ctx, comm, collCommDup, 0, OpSum, nil)
	if err != nil {
		return 0, err
	}
	return res.newComm, nil
}

package mpi

import (
	"fmt"
	"sync"

	"home/internal/sim"
)

// One-sided communication (MPI-2 RMA): windows, Put/Get/Accumulate,
// and fence synchronization. This is the substrate for the
// PGAS-style direction of the paper's future work (UPC's shared
// arrays are one-sided accesses underneath), and it carries its own
// thread-safety rule: conflicting RMA accesses to the same window
// region within one fence epoch are erroneous, which the checker's
// extension (spec.WindowViolation) detects through the same
// monitored-variable machinery as the paper's six classes.

// ErrWindowBounds reports an RMA access outside the target region.
var ErrWindowBounds = fmt.Errorf("mpi: RMA access outside the window region")

// Win is a window: one exposed region per rank of the communicator.
//
// mu keeps RMA operations atomic with respect to each other. A region
// is the owner's array, so every element access, remote or local, is
// an atomic word (LoadElem/StoreElem): an owner reading its region
// while a peer puts into it in the same epoch reads some earlier
// write. MPI itself declares such overlap erroneous (the
// separate-memory-model rule), and the checker's WindowViolation
// extension flags thread-level versions of the mistake.
type Win struct {
	ID   int
	comm CommID
	w    *World

	mu      sync.Mutex
	regions map[int][]float64
}

// WinCreate collectively creates a window exposing the given local
// region. Every rank must call it; the returned handle carries an id
// agreed through the collective instance.
func (p *Proc) WinCreate(ctx *sim.Ctx, local []float64, comm CommID) (*Win, error) {
	// Agree on the id via a Comm_dup-style collective round (the new
	// comm id doubles as the window id, which keeps id agreement
	// deterministic without extra machinery).
	res, err := p.arrive(ctx, comm, collCommDup, 0, OpSum, nil)
	if err != nil {
		return nil, err
	}
	id := int(res.newComm)

	p.world.mu.Lock()
	if p.world.windows == nil {
		p.world.windows = make(map[int]*Win)
	}
	win, ok := p.world.windows[id]
	if !ok {
		win = &Win{ID: id, comm: comm, w: p.world, regions: make(map[int][]float64)}
		p.world.windows[id] = win
	}
	p.world.mu.Unlock()

	win.mu.Lock()
	win.regions[p.rank] = local
	win.mu.Unlock()
	// MPI_Win_create is collective and synchronizing: no rank returns
	// before every region is exposed, so the first access epoch can
	// begin immediately.
	if err := p.Fence(ctx, win); err != nil {
		return nil, err
	}
	return win, nil
}

// Window looks up a window by id (for handles passed through the
// interpreter as integers).
func (w *World) Window(id int) *Win {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.windows[id]
}

// rmaCost charges the one-sided transfer time.
func (p *Proc) rmaCost(ctx *sim.Ctx, elems int) {
	c := p.world.costs
	ctx.Advance(c.MPICallNs + c.MsgLatencyNs + int64(elems*8)*c.MsgNsPerByte)
}

// rmaChaos applies an injected RMA delay: extra virtual latency
// charged before the one-sided operation, which legally reorders it
// against other threads' accesses within the same fence epoch.
func (p *Proc) rmaChaos(ctx *sim.Ctx) {
	if p.world.chaos == nil {
		return
	}
	if d, ok := p.world.chaos.RMADelay(p.rank, ctx.TID, ctx.NextChaosSeq()); ok {
		ctx.Advance(d)
	}
}

// Put writes data into the target rank's region at offset.
func (p *Proc) Put(ctx *sim.Ctx, win *Win, target, offset int, data []float64) error {
	if err := p.checkState(); err != nil {
		return err
	}
	if err := p.chaosEnter(ctx, "MPI_Put"); err != nil {
		return err
	}
	if drop, hang := p.threadGuard(ctx, true); drop {
		ctx.Advance(p.world.costs.MPICallNs)
		return nil
	} else if hang {
		return p.hangForever(ctx)
	}
	p.rmaChaos(ctx)
	win.mu.Lock()
	defer win.mu.Unlock()
	region, ok := win.regions[target]
	if !ok || offset < 0 || offset+len(data) > len(region) {
		return fmt.Errorf("%w: put [%d,%d) into rank %d region of %d", ErrWindowBounds, offset, offset+len(data), target, len(region))
	}
	StoreElems(region[offset:], data)
	p.rmaCost(ctx, len(data))
	return nil
}

// Get reads count elements from the target rank's region at offset.
func (p *Proc) Get(ctx *sim.Ctx, win *Win, target, offset, count int) ([]float64, error) {
	if err := p.checkState(); err != nil {
		return nil, err
	}
	if err := p.chaosEnter(ctx, "MPI_Get"); err != nil {
		return nil, err
	}
	if _, hang := p.threadGuard(ctx, false); hang {
		return nil, p.hangForever(ctx)
	}
	p.rmaChaos(ctx)
	win.mu.Lock()
	defer win.mu.Unlock()
	region, ok := win.regions[target]
	if !ok || offset < 0 || offset+count > len(region) {
		return nil, fmt.Errorf("%w: get [%d,%d) from rank %d region of %d", ErrWindowBounds, offset, offset+count, target, len(region))
	}
	out := make([]float64, count)
	LoadElems(out, region[offset:])
	p.rmaCost(ctx, count)
	return out, nil
}

// Accumulate adds data element-wise into the target region at offset
// (MPI_Accumulate with MPI_SUM).
func (p *Proc) Accumulate(ctx *sim.Ctx, win *Win, target, offset int, data []float64) error {
	if err := p.checkState(); err != nil {
		return err
	}
	if err := p.chaosEnter(ctx, "MPI_Accumulate"); err != nil {
		return err
	}
	if drop, hang := p.threadGuard(ctx, true); drop {
		ctx.Advance(p.world.costs.MPICallNs)
		return nil
	} else if hang {
		return p.hangForever(ctx)
	}
	p.rmaChaos(ctx)
	win.mu.Lock()
	defer win.mu.Unlock()
	region, ok := win.regions[target]
	if !ok || offset < 0 || offset+len(data) > len(region) {
		return fmt.Errorf("%w: accumulate [%d,%d) into rank %d region of %d", ErrWindowBounds, offset, offset+len(data), target, len(region))
	}
	for i, v := range data {
		StoreElem(region, offset+i, LoadElem(region, offset+i)+v)
	}
	p.rmaCost(ctx, len(data))
	return nil
}

// Fence closes the current RMA epoch and opens the next: a collective
// synchronization over the window's communicator after which all
// previous one-sided operations are complete at their targets.
func (p *Proc) Fence(ctx *sim.Ctx, win *Win) error {
	// A fence is a barrier on the window; instance matching keys on a
	// dedicated root so window fences never mix with user barriers on
	// the same communicator.
	_, err := p.arrive(ctx, win.comm, collBarrier, -win.ID-1, OpSum, nil)
	return err
}

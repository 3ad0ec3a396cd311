package mpi

import (
	"fmt"
	"strings"

	"home/internal/sim"
)

// DeadlockError is the error blocked operations return when the
// global deadlock watchdog trips. It wraps ErrDeadlock (errors.Is
// keeps working) and carries the watchdog's wait-for snapshot, so the
// message tabulates what every stuck thread was blocked in — per
// rank and thread, with the MPI selector (kind, peer, tag, comm) of
// structured registrations.
type DeadlockError struct {
	Ops []sim.BlockedOp
}

// Error renders the sentinel message followed by the wait-for table.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	b.WriteString(ErrDeadlock.Error())
	if len(e.Ops) > 0 {
		b.WriteString("; blocked operations:")
		for _, op := range e.Ops {
			fmt.Fprintf(&b, "\n  rank %d thread %d: %s", op.Rank, op.TID, renderBlockedOp(op))
		}
	}
	return b.String()
}

// Unwrap makes errors.Is(err, ErrDeadlock) hold.
func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

// renderBlockedOp prefers the structured selector, falling back to
// the free-form detail.
func renderBlockedOp(op sim.BlockedOp) string {
	if op.Op == "" {
		return op.Detail
	}
	var args []string
	if op.Peer != sim.NoArg {
		args = append(args, fmt.Sprintf("peer=%s", wildcardName(op.Peer, "MPI_ANY_SOURCE")))
	}
	if op.Tag != sim.NoArg {
		args = append(args, fmt.Sprintf("tag=%s", wildcardName(op.Tag, "MPI_ANY_TAG")))
	}
	if op.Comm != sim.NoArg {
		args = append(args, fmt.Sprintf("comm=%d", op.Comm))
	}
	return op.Op + "(" + strings.Join(args, ", ") + ")"
}

// wildcardName renders -1 selector values by their MPI constant name.
func wildcardName(v int, name string) string {
	if v == -1 {
		return name
	}
	return fmt.Sprintf("%d", v)
}

// deadlockError builds the structured error from the current wait-for
// snapshot. Parked sites call it when the watchdog trips.
func (p *Proc) deadlockError() error {
	return &DeadlockError{Ops: p.world.activity.StuckTable()}
}

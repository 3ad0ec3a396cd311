package mpi

import "home/internal/sim"

// Sendrecv performs the combined send+receive operation
// (MPI_Sendrecv): the receive is posted before the send so the
// operation is deadlock-free even for cyclic exchanges under
// rendezvous semantics.
func (p *Proc) Sendrecv(ctx *sim.Ctx, sendData []float64, dest, sendTag int,
	source, recvTag int, comm CommID) ([]float64, Status, error) {
	req, err := p.Irecv(ctx, source, recvTag, comm)
	if err != nil {
		return nil, Status{}, err
	}
	if err := p.Send(ctx, sendData, dest, sendTag, comm); err != nil {
		return nil, Status{}, err
	}
	st, err := p.Wait(ctx, req)
	if err != nil {
		return nil, Status{}, err
	}
	return req.Data(), st, nil
}

// Allgather concatenates every rank's contribution at every rank
// (rank order), i.e. Gather to all.
func (p *Proc) Allgather(ctx *sim.Ctx, data []float64, comm CommID) ([]float64, error) {
	res, err := p.arrive(ctx, comm, collAllgather, 0, OpSum, data)
	if err != nil {
		return nil, err
	}
	return res.data, nil
}

// Package chaos is the deterministic fault-injection layer of the
// simulated cluster. A Plan describes which faults to inject — message
// delivery delays, unexpected-queue reordering, transient send
// failures with retry/backoff, sender wall-clock jitter, rank
// crash-stop, and thread stalls — and an Injector turns the plan into
// per-decision verdicts the runtime substrates (internal/mpi,
// internal/omp) consult at their injection hooks.
//
// Determinism: every decision is a pure hash of
// (plan seed, fault stream, rank, thread, per-thread decision index),
// never of wall-clock time or goroutine interleaving. Two runs with
// the same plan therefore inject the same faults at the same program
// points, even though the host schedule differs — which is what makes
// chaos runs replayable and the soak harness's metamorphic assertions
// meaningful.
//
// Legality: the message perturbations stay inside MPI semantics. Extra
// delivery latency and sender-side wall jitter only shift virtual or
// wall time; queue reordering moves a message ahead of queued messages
// from *other* sources only, preserving the non-overtaking rule
// between every (sender, receiver) pair; transient send failures are
// retried until they succeed, charging virtual backoff. A plan whose
// CrashAfterCalls is zero is therefore a pure schedule perturbation: a
// correct program must produce the same verdicts under it (see
// docs/ROBUSTNESS.md).
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"home/internal/obs"
)

// Plan is a declarative fault-injection plan. The zero value injects
// nothing; New fills defaults for the knobs a enabled fault family
// leaves zero.
type Plan struct {
	// Seed drives every injection decision. Plans with equal fields
	// and equal seeds inject identically.
	Seed int64

	// DelayProb is the per-send probability of extra delivery latency,
	// uniform in [1, MaxDelayNs] virtual ns (default 50µs).
	DelayProb  float64
	MaxDelayNs int64

	// ReorderProb is the per-send probability that the message, if it
	// ends up on the receiver's unexpected-message queue, is placed
	// ahead of queued messages from other sources (same-source order is
	// always preserved — the MPI non-overtaking rule).
	ReorderProb float64

	// SendFailProb is the per-send probability of transient failure;
	// the sender retries up to MaxRetries times (default 3), charging
	// RetryBackoffNs virtual ns per attempt (default 5µs), and always
	// succeeds in the end.
	SendFailProb   float64
	MaxRetries     int
	RetryBackoffNs int64

	// JitterProb is the per-send probability of a wall-clock pause of
	// up to JitterWall (default 200µs) before the send executes. The
	// pause perturbs the host schedule — which goroutine delivers
	// first — creating unexpected-queue pressure without touching
	// virtual time.
	JitterProb float64
	JitterWall time.Duration

	// CrashRank and CrashAfterCalls inject a crash-stop: CrashRank
	// fails permanently during its CrashAfterCalls-th MPI call (the
	// call itself returns the failure, so crash=R@1 fires on R's very
	// first call). CrashAfterCalls == 0 disables the crash.
	CrashRank       int
	CrashAfterCalls int64

	// StallProb is the per-decision-point probability that a thread
	// stalls: StallNs virtual ns (default 100µs) plus a StallWall
	// wall-clock pause (default 2ms) during which the thread counts as
	// transiently blocked, exercising the deadlock watchdog's grace
	// logic.
	StallProb float64
	StallNs   int64
	StallWall time.Duration

	// RMAProb is the per-RMA-operation probability of extra virtual
	// latency before the window access, uniform in [1, MaxRMADelayNs]
	// (default 30µs). Within a fence epoch RMA operations are
	// unordered, so the delay legally reorders Put/Get/Accumulate
	// completions without changing epoch semantics.
	RMAProb       float64
	MaxRMADelayNs int64
}

// Default knob values filled in by New for enabled fault families.
const (
	DefaultMaxDelayNs     = 50_000
	DefaultMaxRetries     = 3
	DefaultRetryBackoffNs = 5_000
	DefaultJitterWall     = 200 * time.Microsecond
	DefaultStallNs        = 100_000
	DefaultStallWall      = 2 * time.Millisecond
	DefaultMaxRMADelayNs  = 30_000
)

// CrashEnabled reports whether the plan injects a crash-stop.
func (p *Plan) CrashEnabled() bool { return p != nil && p.CrashAfterCalls > 0 }

// LegalOnly reports whether the plan is a pure schedule perturbation
// (no crash-stop): verdicts must be stable under it.
func (p *Plan) LegalOnly() bool { return !p.CrashEnabled() }

// String renders the plan in ParseSpec syntax.
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	parts := []string{fmt.Sprintf("seed=%d", p.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("delay", p.DelayProb)
	add("reorder", p.ReorderProb)
	add("fail", p.SendFailProb)
	add("jitter", p.JitterProb)
	add("stall", p.StallProb)
	add("rma", p.RMAProb)
	if p.CrashEnabled() {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", p.CrashRank, p.CrashAfterCalls))
	}
	return strings.Join(parts, ",")
}

// Perturb returns the default legal-perturbation plan: delays,
// reorders, transient send failures, sender jitter and short stalls,
// no crash. It is the plan `-chaos seed=N` selects.
func Perturb(seed int64) *Plan {
	return &Plan{
		Seed:         seed,
		DelayProb:    0.25,
		ReorderProb:  0.25,
		SendFailProb: 0.15,
		JitterProb:   0.20,
		StallProb:    0.05,
		RMAProb:      0.20,
	}
}

// Crash returns the Perturb plan plus a crash-stop of the given rank
// during its n-th MPI call (n is 1-based).
func Crash(seed int64, rank int, n int64) *Plan {
	p := Perturb(seed)
	p.CrashRank = rank
	p.CrashAfterCalls = n
	return p
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs. Keys: seed=N, delay=P, delayns=N, reorder=P, fail=P,
// retries=N, backoffns=N, jitter=P, jitterus=N, stall=P, stallns=N,
// stallus=N (wall), rma=P, rmans=N, crash=RANK@CALLS. A spec
// containing only seed=N
// (or the bare form "N") yields Perturb(N); an explicit fault key
// builds the plan from scratch so specs compose predictably.
func ParseSpec(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Perturb(1), nil
	}
	if n, err := strconv.ParseInt(spec, 10, 64); err == nil {
		return Perturb(n), nil
	}
	p := &Plan{}
	seed := int64(1)
	seedOnly := true
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: bad spec entry %q (want key=value)", part)
		}
		prob := func() (float64, error) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 || f > 1 {
				return 0, fmt.Errorf("chaos: %s wants a probability in [0,1], got %q", k, v)
			}
			return f, nil
		}
		num := func() (int64, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("chaos: %s wants a non-negative integer, got %q", k, v)
			}
			return n, nil
		}
		var err error
		switch k {
		case "seed":
			seed, err = num()
		case "delay":
			seedOnly = false
			p.DelayProb, err = prob()
		case "delayns":
			seedOnly = false
			p.MaxDelayNs, err = num()
		case "reorder":
			seedOnly = false
			p.ReorderProb, err = prob()
		case "fail":
			seedOnly = false
			p.SendFailProb, err = prob()
		case "retries":
			seedOnly = false
			var n int64
			n, err = num()
			p.MaxRetries = int(n)
		case "backoffns":
			seedOnly = false
			p.RetryBackoffNs, err = num()
		case "jitter":
			seedOnly = false
			p.JitterProb, err = prob()
		case "jitterus":
			seedOnly = false
			var n int64
			n, err = num()
			p.JitterWall = time.Duration(n) * time.Microsecond
		case "stall":
			seedOnly = false
			p.StallProb, err = prob()
		case "stallns":
			seedOnly = false
			p.StallNs, err = num()
		case "stallus":
			seedOnly = false
			var n int64
			n, err = num()
			p.StallWall = time.Duration(n) * time.Microsecond
		case "rma":
			seedOnly = false
			p.RMAProb, err = prob()
		case "rmans":
			seedOnly = false
			p.MaxRMADelayNs, err = num()
		case "crash":
			seedOnly = false
			rank, calls, ok := strings.Cut(v, "@")
			if !ok {
				return nil, fmt.Errorf("chaos: crash wants RANK@CALLS, got %q", v)
			}
			r, err1 := strconv.Atoi(rank)
			n, err2 := strconv.ParseInt(calls, 10, 64)
			if err1 != nil || err2 != nil || r < 0 || n < 1 {
				return nil, fmt.Errorf("chaos: crash wants RANK@CALLS, got %q", v)
			}
			p.CrashRank, p.CrashAfterCalls = r, n
		default:
			return nil, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	if seedOnly {
		return Perturb(seed), nil
	}
	p.Seed = seed
	return p, nil
}

// Fault streams: each fault family rolls on its own stream so enabling
// one family never shifts another's decisions.
const (
	streamDelay = iota + 1
	streamDelayAmt
	streamReorder
	streamFail
	streamFailAmt
	streamJitter
	streamJitterAmt
	streamStall
	streamRMA
	streamRMAAmt
)

// SendFault is the verdict for one point-to-point send.
type SendFault struct {
	// DelayNs is extra virtual delivery latency (0 = none).
	DelayNs int64
	// Reorder asks the receiver to queue the message ahead of queued
	// messages from other sources.
	Reorder bool
	// Retries is the number of transient failures before the send
	// succeeds; each charges BackoffNs virtual ns on top of the MPI
	// call cost.
	Retries   int
	BackoffNs int64
	// JitterWall is a wall-clock pause taken before the send.
	JitterWall time.Duration
}

// Stall is the verdict for one stall decision point.
type Stall struct {
	// VirtualNs is charged to the thread's virtual clock.
	VirtualNs int64
	// Wall is the wall-clock pause, taken as a transient block so the
	// deadlock watchdog can tell it from a genuine hang.
	Wall time.Duration
}

// MsgID identifies one point-to-point message by its sending thread
// and the sender's per-thread schedule-point index at the send — a
// host-schedule-independent identity used by record/replay to force
// message-match resolutions. The zero MsgID (Seq == 0; real stamps
// are always >= 1) means "no specific message".
type MsgID struct {
	Rank int
	TID  int
	Seq  uint64
}

// Zero reports whether the MsgID carries no message identity.
func (m MsgID) Zero() bool { return m.Seq == 0 }

// CollOrder pins one participant's collective-instance assignment: the
// communicator-local instance the arrival joined, its arrival index
// within that instance, and — for MPI_Comm_dup — the communicator id
// the completed instance allocated. Recording these for every
// *completed* instance (abandoned instances record nothing) makes the
// release time of every collective, and hence virtual time, a
// deterministic function of the schedule.
type CollOrder struct {
	// Comm is the communicator the instance ran on.
	Comm int
	// Seq is the instance's 1-based number within the communicator.
	Seq int64
	// Ord is the participant's 1-based arrival index in the instance.
	Ord int
	// NewComm is the duplicated communicator id allocated by a
	// completed Comm_dup instance; -1 for every other collective.
	NewComm int
}

// Decision kinds (the "k" field of a schedule record; internal/sched
// documents each kind's wire format).
const (
	KindSend  = "send"
	KindStall = "stall"
	KindRMA   = "rma"
	KindFail  = "fail"
	KindAbort = "abort"
	KindMatch = "match"
	KindPoll  = "poll"
	KindCrash = "crash"

	// Order families: collective membership, lock grants, single
	// elections and worksharing chunk claims.
	KindColl   = "coll"
	KindLock   = "lock"
	KindSingle = "single"
	KindChunk  = "chunk"
)

// Record is one realized decision, keyed by (Kind, Rank, TID, Seq).
// Key fields are always present; payload fields are per-kind.
// Rank-valued payload fields (Dead1, Src1, STID1, Comm1, NewComm1) are
// stored 1-based so the zero value can mean "absent" under omitempty —
// use the accessor methods, not the raw fields. The Injector's
// Observe*/Replay* helpers are the one place that converts between
// typed verdicts and records.
type Record struct {
	Kind string `json:"k"`
	Rank int    `json:"r"`
	TID  int    `json:"t"`
	Seq  uint64 `json:"q,omitempty"` // crash records carry no point

	// send / rma payload (rma uses DelayNs only)
	DelayNs   int64 `json:"delay,omitempty"`
	Reorder   bool  `json:"reorder,omitempty"`
	Retries   int   `json:"retries,omitempty"`
	BackoffNs int64 `json:"backoff,omitempty"`
	JitterNs  int64 `json:"jitter,omitempty"`

	// stall payload
	StallNs     int64 `json:"stall,omitempty"`
	StallWallNs int64 `json:"stallw,omitempty"`

	// fail payload: 1-based rank whose failure was observed
	Dead1 int `json:"dead,omitempty"`

	// match / poll payload: 1-based sender rank and tid plus the
	// sender's schedule stamp (stamps are >= 1, so SrcSeq == 0 means
	// "no message identity" — a bare completion poll)
	Src1   int    `json:"src,omitempty"`
	STID1  int    `json:"stid,omitempty"`
	SrcSeq uint64 `json:"sseq,omitempty"`

	// coll payload: 1-based communicator id, instance seq within the
	// communicator (>= 1), 1-based arrival index, and the 1-based
	// duplicated communicator id a completed Comm_dup allocated (0 =
	// not a Comm_dup)
	Comm1    int   `json:"comm,omitempty"`
	CollSeq  int64 `json:"cseq,omitempty"`
	Ord      int   `json:"ord,omitempty"`
	NewComm1 int   `json:"ncomm,omitempty"`

	// lock payload: 1-based per-lock grant ticket
	Ticket uint64 `json:"ticket,omitempty"`

	// chunk payload: claimed iteration range [base, end); plain values
	// (omitempty only elides literal zeros, which decode back to zero)
	Base int64 `json:"base,omitempty"`
	End  int64 `json:"end,omitempty"`
}

// Key identifies one decision: the record kind plus its schedule
// point. Crash records, which carry no point, use TID 0 and Seq 0.
type Key struct {
	Kind string `json:"k"`
	Rank int    `json:"r"`
	TID  int    `json:"t"`
	Seq  uint64 `json:"q"`
}

func (k Key) String() string {
	return fmt.Sprintf("%s@(%d,%d,%d)", k.Kind, k.Rank, k.TID, k.Seq)
}

// Key returns the record's identity key.
func (r Record) Key() Key { return Key{r.Kind, r.Rank, r.TID, r.Seq} }

// DeadRank returns the observed failed rank of a fail record.
func (r Record) DeadRank() int { return r.Dead1 - 1 }

// Msg returns the message identity of a match/poll record (zero MsgID
// when the record carries none).
func (r Record) Msg() MsgID {
	if r.SrcSeq == 0 {
		return MsgID{}
	}
	return MsgID{Rank: r.Src1 - 1, TID: r.STID1 - 1, Seq: r.SrcSeq}
}

// CollOrder returns the instance assignment of a coll record.
func (r Record) CollOrder() CollOrder {
	return CollOrder{Comm: r.Comm1 - 1, Seq: r.CollSeq, Ord: r.Ord, NewComm: r.NewComm1 - 1}
}

// Recorder receives every realized fault decision and nondeterministic
// resolution during a recorded chaos run (implemented by
// internal/sched). Implementations must be safe for concurrent use:
// match resolutions and collective memberships are recorded from
// another participant's goroutine.
type Recorder interface {
	Record(rec Record)
}

// Source answers the same decision points from a recorded schedule
// during replay (implemented by internal/sched). An absent record
// means "nothing was recorded here": no fault, no failure, no match.
type Source interface {
	Lookup(kind string, rank, tid int, seq uint64) (Record, bool)
	// Crashes lists the ranks that crash-stopped in the recorded run;
	// the world pre-marks them (without failure propagation) so replay
	// reproduces DeadRanks exactly from the recorded fail/abort records.
	Crashes() []int
}

// Injector evaluates a Plan. All methods are safe on a nil receiver
// (nil = chaos off) and on concurrent use.
type Injector struct {
	plan  Plan
	stats injStats
	rec   Recorder
	src   Source
}

// injStats caches the chaos.* observability handles (nil-safe, same
// pattern as the substrates' stat caches).
type injStats struct {
	delays      *obs.Counter
	delayVns    *obs.Counter
	reorders    *obs.Counter
	sendRetries *obs.Counter
	jitters     *obs.Counter
	stalls      *obs.Counter
	stallVns    *obs.Counter
	crashStops  *obs.Counter
	rmaDelays   *obs.Counter
	rmaDelayVns *obs.Counter
}

// New builds an Injector for the plan, resolving observability
// handles from reg (both may be nil: a nil plan returns a nil
// Injector, a nil registry disables counting).
func New(plan *Plan, reg *obs.Registry) *Injector {
	if plan == nil {
		return nil
	}
	p := *plan
	if p.MaxDelayNs <= 0 {
		p.MaxDelayNs = DefaultMaxDelayNs
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.RetryBackoffNs <= 0 {
		p.RetryBackoffNs = DefaultRetryBackoffNs
	}
	if p.JitterWall <= 0 {
		p.JitterWall = DefaultJitterWall
	}
	if p.StallNs <= 0 {
		p.StallNs = DefaultStallNs
	}
	if p.StallWall <= 0 {
		p.StallWall = DefaultStallWall
	}
	if p.MaxRMADelayNs <= 0 {
		p.MaxRMADelayNs = DefaultMaxRMADelayNs
	}
	return &Injector{
		plan: p,
		stats: injStats{
			delays:      reg.Counter("chaos.msg_delays"),
			delayVns:    reg.Counter("chaos.msg_delay_vns"),
			reorders:    reg.Counter("chaos.msg_reorders"),
			sendRetries: reg.Counter("chaos.send_retries"),
			jitters:     reg.Counter("chaos.send_jitters"),
			stalls:      reg.Counter("chaos.stalls"),
			stallVns:    reg.Counter("chaos.stall_vns"),
			crashStops:  reg.Counter("chaos.crash_stops"),
			rmaDelays:   reg.Counter("chaos.rma_delays"),
			rmaDelayVns: reg.Counter("chaos.rma_delay_vns"),
		},
	}
}

// SetRecorder attaches a schedule recorder: every realized fault
// decision and observed nondeterministic resolution is logged to it.
func (in *Injector) SetRecorder(r Recorder) {
	if in != nil {
		in.rec = r
	}
}

// SetSource attaches a schedule source, switching the injector to
// replay mode: fault decisions are read from the recorded schedule
// instead of hashing the plan seed, and the runtime substrates force
// the recorded failure observations and match resolutions.
func (in *Injector) SetSource(s Source) {
	if in != nil {
		in.src = s
	}
}

// ReplayCrashes lists the crash-stopped ranks of the replayed
// schedule (nil when not replaying).
func (in *Injector) ReplayCrashes() []int {
	if in == nil || in.src == nil {
		return nil
	}
	return in.src.Crashes()
}

// Recording reports whether a schedule recorder is attached.
func (in *Injector) Recording() bool { return in != nil && in.rec != nil }

// Replaying reports whether the injector replays a recorded schedule.
func (in *Injector) Replaying() bool { return in != nil && in.src != nil }

// SchedActive reports whether the run is either recording or
// replaying a schedule — the substrates then allocate schedule points
// (sim.Ctx.NextSchedSeq) at every nondeterministic resolution site.
func (in *Injector) SchedActive() bool { return in.Recording() || in.Replaying() }

// Plan returns a copy of the injector's plan with defaults filled
// (zero Plan if the injector is nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// roll hashes (seed, stream, rank, tid, seq) into a uniform uint64
// (splitmix64 over the mixed key).
func (in *Injector) roll(stream, rank, tid int, seq uint64) uint64 {
	z := uint64(in.plan.Seed)
	z ^= 0x9e3779b97f4a7c15 * (uint64(stream)<<48 ^ uint64(rank)<<32 ^ uint64(tid)<<24 ^ (seq + 1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hit converts a roll to a probability verdict.
func (in *Injector) hit(prob float64, stream, rank, tid int, seq uint64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return float64(in.roll(stream, rank, tid, seq)>>11)/(1<<53) < prob
}

// amount draws a deterministic value in [1, max].
func (in *Injector) amount(max int64, stream, rank, tid int, seq uint64) int64 {
	if max <= 1 {
		return max
	}
	return 1 + int64(in.roll(stream, rank, tid, seq)%uint64(max))
}

// record hands a realized decision to the attached recorder, if any.
func (in *Injector) record(rec Record) {
	if in != nil && in.rec != nil {
		in.rec.Record(rec)
	}
}

// lookup answers a decision point from the attached schedule, if any.
func (in *Injector) lookup(kind string, rank, tid int, seq uint64) (Record, bool) {
	if in == nil || in.src == nil {
		return Record{}, false
	}
	return in.src.Lookup(kind, rank, tid, seq)
}

// SendFault returns the faults to apply to the send identified by
// (rank, tid, seq). seq is the caller thread's decision index
// (sim.Ctx.NextChaosSeq), which makes the verdict independent of the
// host schedule.
func (in *Injector) SendFault(rank, tid int, seq uint64) SendFault {
	if in == nil {
		return SendFault{}
	}
	var f SendFault
	if in.src != nil {
		// Wall jitter exists only to provoke host-schedule races; in
		// replay the resolutions are forced, so don't waste the time.
		if rec, ok := in.src.Lookup(KindSend, rank, tid, seq); ok {
			f = SendFault{DelayNs: rec.DelayNs, Reorder: rec.Reorder, Retries: rec.Retries, BackoffNs: rec.BackoffNs}
		}
		in.countSend(f)
		return f
	}
	if in.hit(in.plan.DelayProb, streamDelay, rank, tid, seq) {
		f.DelayNs = in.amount(in.plan.MaxDelayNs, streamDelayAmt, rank, tid, seq)
	}
	if in.hit(in.plan.ReorderProb, streamReorder, rank, tid, seq) {
		f.Reorder = true
	}
	if in.hit(in.plan.SendFailProb, streamFail, rank, tid, seq) {
		f.Retries = int(in.amount(int64(in.plan.MaxRetries), streamFailAmt, rank, tid, seq))
		f.BackoffNs = in.plan.RetryBackoffNs
	}
	if in.hit(in.plan.JitterProb, streamJitter, rank, tid, seq) {
		us := in.amount(int64(in.plan.JitterWall/time.Microsecond), streamJitterAmt, rank, tid, seq)
		f.JitterWall = time.Duration(us) * time.Microsecond
	}
	in.countSend(f)
	if f != (SendFault{}) {
		in.record(Record{Kind: KindSend, Rank: rank, TID: tid, Seq: seq,
			DelayNs: f.DelayNs, Reorder: f.Reorder, Retries: f.Retries, BackoffNs: f.BackoffNs,
			JitterNs: int64(f.JitterWall)})
	}
	return f
}

// countSend charges the observability counters for a realized send
// fault (shared by the seed-hash and replay paths).
func (in *Injector) countSend(f SendFault) {
	if f.DelayNs > 0 {
		in.stats.delays.Inc()
		in.stats.delayVns.Add(f.DelayNs)
	}
	if f.Reorder {
		in.stats.reorders.Inc()
	}
	if f.Retries > 0 {
		in.stats.sendRetries.Add(int64(f.Retries))
	}
	if f.JitterWall > 0 {
		in.stats.jitters.Inc()
	}
}

// StallAt returns the stall to take at decision point (rank, tid,
// seq), if any.
func (in *Injector) StallAt(rank, tid int, seq uint64) (Stall, bool) {
	if in == nil {
		return Stall{}, false
	}
	var s Stall
	if in.src != nil {
		rec, ok := in.src.Lookup(KindStall, rank, tid, seq)
		if !ok {
			return Stall{}, false
		}
		s.VirtualNs = rec.StallNs // as with jitter, the wall pause is not re-applied
	} else {
		if !in.hit(in.plan.StallProb, streamStall, rank, tid, seq) {
			return Stall{}, false
		}
		s = Stall{VirtualNs: in.plan.StallNs, Wall: in.plan.StallWall}
		in.record(Record{Kind: KindStall, Rank: rank, TID: tid, Seq: seq, StallNs: s.VirtualNs, StallWallNs: int64(s.Wall)})
	}
	in.stats.stalls.Inc()
	in.stats.stallVns.Add(s.VirtualNs)
	return s, true
}

// RMADelay returns the extra virtual latency to charge before the RMA
// operation at decision point (rank, tid, seq), if any.
func (in *Injector) RMADelay(rank, tid int, seq uint64) (int64, bool) {
	if in == nil {
		return 0, false
	}
	var d int64
	if in.src != nil {
		rec, ok := in.src.Lookup(KindRMA, rank, tid, seq)
		if !ok {
			return 0, false
		}
		d = rec.DelayNs
	} else {
		if !in.hit(in.plan.RMAProb, streamRMA, rank, tid, seq) {
			return 0, false
		}
		d = in.amount(in.plan.MaxRMADelayNs, streamRMAAmt, rank, tid, seq)
		in.record(Record{Kind: KindRMA, Rank: rank, TID: tid, Seq: seq, DelayNs: d})
	}
	in.stats.rmaDelays.Inc()
	in.stats.rmaDelayVns.Add(d)
	return d, true
}

// ObserveFail records that the operation at schedule point (rank,
// tid, seq) observed the failure of rank dead.
func (in *Injector) ObserveFail(rank, tid int, seq uint64, dead int) {
	in.record(Record{Kind: KindFail, Rank: rank, TID: tid, Seq: seq, Dead1: dead + 1})
}

// ReplayFail returns the recorded failure observation at the schedule
// point, if any.
func (in *Injector) ReplayFail(rank, tid int, seq uint64) (int, bool) {
	rec, ok := in.lookup(KindFail, rank, tid, seq)
	return rec.DeadRank(), ok
}

// ObserveAbort records that the OpenMP construct at the schedule
// point was abandoned by a crash-stop.
func (in *Injector) ObserveAbort(rank, tid int, seq uint64) {
	in.record(Record{Kind: KindAbort, Rank: rank, TID: tid, Seq: seq})
}

// ReplayAbort reports whether an abort was recorded at the point.
func (in *Injector) ReplayAbort(rank, tid int, seq uint64) bool {
	_, ok := in.lookup(KindAbort, rank, tid, seq)
	return ok
}

// msgRecord builds a match/poll record; a zero MsgID (a bare
// request-completion poll) carries no sender payload.
func msgRecord(kind string, rank, tid int, seq uint64, m MsgID) Record {
	rec := Record{Kind: kind, Rank: rank, TID: tid, Seq: seq}
	if !m.Zero() {
		rec.Src1, rec.STID1, rec.SrcSeq = m.Rank+1, m.TID+1, m.Seq
	}
	return rec
}

// ObserveMatch records which message satisfied the receive or probe
// posted at the schedule point. Safe to call from the sender's
// goroutine (the Recorder contract requires concurrency safety).
func (in *Injector) ObserveMatch(rank, tid int, seq uint64, m MsgID) {
	in.record(msgRecord(KindMatch, rank, tid, seq, m))
}

// ReplayMatch returns the recorded match resolution for the receive
// or probe posted at the schedule point, if any.
func (in *Injector) ReplayMatch(rank, tid int, seq uint64) (MsgID, bool) {
	rec, ok := in.lookup(KindMatch, rank, tid, seq)
	return rec.Msg(), ok
}

// ObservePoll records a successful non-blocking poll (MPI_Test,
// MPI_Iprobe); m is the matched message for probes, zero for
// request-completion tests.
func (in *Injector) ObservePoll(rank, tid int, seq uint64, m MsgID) {
	in.record(msgRecord(KindPoll, rank, tid, seq, m))
}

// ReplayPoll returns the recorded poll outcome at the point, if any.
func (in *Injector) ReplayPoll(rank, tid int, seq uint64) (MsgID, bool) {
	rec, ok := in.lookup(KindPoll, rank, tid, seq)
	return rec.Msg(), ok
}

// ObserveCollJoin records a participant's collective-instance
// assignment. It is called once per participant when an instance
// *completes*, possibly from another participant's goroutine;
// abandoned instances are never recorded.
func (in *Injector) ObserveCollJoin(rank, tid int, seq uint64, o CollOrder) {
	in.record(Record{Kind: KindColl, Rank: rank, TID: tid, Seq: seq,
		Comm1: o.Comm + 1, CollSeq: o.Seq, Ord: o.Ord, NewComm1: o.NewComm + 1})
}

// ReplayCollJoin returns the recorded collective-instance assignment
// at the schedule point, if any.
func (in *Injector) ReplayCollJoin(rank, tid int, seq uint64) (CollOrder, bool) {
	rec, ok := in.lookup(KindColl, rank, tid, seq)
	return rec.CollOrder(), ok
}

// ObserveLockGrant records that the lock acquire at the schedule
// point was granted as the lock's ticket-th acquisition (tickets are
// 1-based and count grants per lock object).
func (in *Injector) ObserveLockGrant(rank, tid int, seq uint64, ticket uint64) {
	in.record(Record{Kind: KindLock, Rank: rank, TID: tid, Seq: seq, Ticket: ticket})
}

// ReplayLockGrant returns the recorded acquisition ticket at the
// schedule point, if any.
func (in *Injector) ReplayLockGrant(rank, tid int, seq uint64) (uint64, bool) {
	rec, ok := in.lookup(KindLock, rank, tid, seq)
	return rec.Ticket, ok
}

// ObserveSingleWin records that the thread won the first-arriver
// election of the `single` construct at its key-th construct
// encounter (the thread's run-wide construct count, not a schedule
// point: elections allocate no new points).
func (in *Injector) ObserveSingleWin(rank, tid int, key uint64) {
	in.record(Record{Kind: KindSingle, Rank: rank, TID: tid, Seq: key})
}

// ReplaySingleWin reports whether the thread won the recorded
// election at its key-th construct encounter.
func (in *Injector) ReplaySingleWin(rank, tid int, key uint64) bool {
	_, ok := in.lookup(KindSingle, rank, tid, key)
	return ok
}

// ObserveChunk records the iteration range [base, end) the thread
// claimed from a dynamic/guided loop; seq composes the thread's
// construct count with its claim index (see internal/omp).
func (in *Injector) ObserveChunk(rank, tid int, seq uint64, base, end int64) {
	in.record(Record{Kind: KindChunk, Rank: rank, TID: tid, Seq: seq, Base: base, End: end})
}

// ReplayChunk returns the recorded loop claim at the key, if any.
func (in *Injector) ReplayChunk(rank, tid int, seq uint64) (base, end int64, ok bool) {
	rec, ok := in.lookup(KindChunk, rank, tid, seq)
	return rec.Base, rec.End, ok
}

// ObserveCrash records that a rank crash-stopped.
func (in *Injector) ObserveCrash(rank int) {
	in.record(Record{Kind: KindCrash, Rank: rank})
}

// CrashPoint returns the 1-based index of the MPI call during which
// the given rank crash-stops, or -1 when the rank never crashes.
func (in *Injector) CrashPoint(rank int) int64 {
	if in == nil || in.plan.CrashAfterCalls <= 0 || in.plan.CrashRank != rank {
		return -1
	}
	return in.plan.CrashAfterCalls
}

// CountCrash records that a crash-stop fired.
func (in *Injector) CountCrash() {
	if in != nil {
		in.stats.crashStops.Inc()
	}
}

// Describe returns a sorted human-readable list of the plan's enabled
// fault families (diagnostics and soak reports).
func (in *Injector) Describe() []string {
	if in == nil {
		return nil
	}
	var out []string
	if in.plan.DelayProb > 0 {
		out = append(out, fmt.Sprintf("delay p=%g max=%dns", in.plan.DelayProb, in.plan.MaxDelayNs))
	}
	if in.plan.ReorderProb > 0 {
		out = append(out, fmt.Sprintf("reorder p=%g", in.plan.ReorderProb))
	}
	if in.plan.SendFailProb > 0 {
		out = append(out, fmt.Sprintf("sendfail p=%g retries<=%d", in.plan.SendFailProb, in.plan.MaxRetries))
	}
	if in.plan.JitterProb > 0 {
		out = append(out, fmt.Sprintf("jitter p=%g wall<=%s", in.plan.JitterProb, in.plan.JitterWall))
	}
	if in.plan.StallProb > 0 {
		out = append(out, fmt.Sprintf("stall p=%g", in.plan.StallProb))
	}
	if in.plan.RMAProb > 0 {
		out = append(out, fmt.Sprintf("rma p=%g max=%dns", in.plan.RMAProb, in.plan.MaxRMADelayNs))
	}
	if in.plan.CrashEnabled() {
		out = append(out, fmt.Sprintf("crash rank %d at call %d", in.plan.CrashRank, in.plan.CrashAfterCalls))
	}
	sort.Strings(out)
	return out
}

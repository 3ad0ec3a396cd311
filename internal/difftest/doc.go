// Package difftest is the differential-testing spine for the
// checker's optimized fast paths. Every optimization in the hot
// layers keeps a reference implementation, and this package proves
// the two agree where it matters:
//
//   - vclock.Packed (dense slice + FastTrack-style own epoch,
//     copy-on-write snapshots, O(1) adoption) against VC, the
//     map-backed reference clock that lives in this package
//     (vc_test.go), on randomized mirrored histories;
//   - internal/detect's pair scan, which counts each access's pairs
//     per epoch class, against the exhaustive per-pair reference scan
//     (reference_test.go), byte-for-byte on reports, violations,
//     witnesses, timelines and stats, over the frozen chaos-soak
//     corpus and randomized or fuzzed traces;
//   - the v3 binary schedule container against the JSONL container,
//     via lossless v2→v3→v2 transcode identity, plus salvage and
//     typed-error behaviour on truncated or corrupt streams.
//
// refAnalyze keeps its own copy of detect's clock replay; sharing one
// would mean exporting detect's replay internals for a test's sake.
// The copy cannot be an independent design either: the
// detect.epoch_hits, detect.vc_joins and detect.vc_width stats it
// must reproduce count the replay's individual Publish, Adopt and
// Join calls, so only a replay making the same calls yields the same
// stats. A change to the replay in detect.go is therefore made in
// reference_test.go too. The oracle's independence lies elsewhere:
// in its exhaustive pair scan and its plain-set locksets, not in the
// clock replay. It also replays every rank on one goroutine in one
// clock space, where detect gives each rank its own space and replays
// the ranks on parallel workers; the random traces long enough for
// several workers run at GOMAXPROCS 4, so that path is compared on
// every host.
//
// The clock equivalence test runs under a GOMAXPROCS 1/2/4 matrix,
// and CI runs the package with -race. The corpus is built once per
// test binary: the chaos-soak recipe of docs/ROBUSTNESS.md (per
// fault kind one unperturbed baseline, eight legal-perturbation
// plans, two crash-stop plans) plus the explorer acceptance cell,
// each run retaining its event log and realized schedule.
//
// testdata/BENCH_NPB_pre_packed.json freezes the perf baseline as
// measured immediately before the packed-clock change; the baseline
// test pins the claimed detector-counter improvement against it.
package difftest

package interp

import (
	"testing"
	"time"

	"home/internal/minic"
	"home/internal/npb"
)

// BenchmarkRunNPB runs the injected LU-MZ class W program on 4
// processes without a trace sink: the interpreter and the runtimes
// alone, as the perf ledger's interp.run_ms measures them.
func BenchmarkRunNPB(b *testing.B) {
	o := npb.PaperInjections(npb.LU)
	o.Class = 'W'
	prog, err := minic.Parse(npb.Generate(npb.LU, o).Text)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := Run(prog, Config{Procs: 4}); res.FirstError() != nil {
			b.Fatal(res.FirstError())
		}
	}
}

// runLoopSrc is a sequential compute loop over a double array: a
// statement mix of calls, element reads and writes and typed float
// arithmetic.
const runLoopSrc = `
int main() {
  double a[100];
  for (int i = 0; i < 200000; i++) {
    compute(80);
    a[i % 100] = a[i % 100] * 0.99 + 0.01;
  }
  return 0;
}`

// BenchmarkRunLoop runs runLoopSrc on one process and reports the
// interpreter's cost per statement.
func BenchmarkRunLoop(b *testing.B) {
	prog, err := minic.Parse(runLoopSrc)
	if err != nil {
		b.Fatal(err)
	}
	var stmts int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, n := statements(prog, Config{Procs: 1})
		if res.FirstError() != nil {
			b.Fatal(res.FirstError())
		}
		stmts += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stmts), "ns/stmt")
}

// BenchmarkLower lowers the three injected class-B NPB-MZ programs and
// reports, beside the lowering time per op, the time minic takes to
// parse the same sources (parse-ns/op): lowering must cost no more
// than parsing.
func BenchmarkLower(b *testing.B) {
	var srcs []string
	for _, bench := range npb.All() {
		o := npb.PaperInjections(bench)
		o.Class = 'B'
		srcs = append(srcs, npb.Generate(bench, o).Text)
	}
	progs := make([]*minic.Program, len(srcs))
	var parse time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t0 := time.Now()
		for j, src := range srcs {
			prog, err := minic.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			progs[j] = prog
		}
		parse += time.Since(t0)
		b.StartTimer()
		for _, prog := range progs {
			lower(prog)
		}
	}
	b.ReportMetric(float64(parse.Nanoseconds())/float64(b.N), "parse-ns/op")
}

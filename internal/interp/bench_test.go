package interp

import (
	"testing"

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

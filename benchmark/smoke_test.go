package main

import (
	"context"
	"math"
	"testing"
	"time"
)

var tinySizes = sizes{
	offlineN: 400, offlineInstances: 2, stableN: 40,
	missN: 200, hitN: 400, serveInstances: 4,
	churnN: 400, sessions: 2, uploads: 3,
}

// TestSmoke runs every workload at tiny sizes with 0.3 s steps, untraced as
// two parts pooled and traced, and checks that every result was correct, no
// op failed, and exactly the declared metrics came out, each a finite
// number. Under -short only offline_solve and serve_miss run.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.name != "offline_solve" && w.name != "serve_miss" {
			continue
		}
		for _, traced := range []bool{false, true} {
			name := w.name
			defs := endToEnd
			if traced {
				name += "/traced"
				defs = perLayer
			}
			t.Run(name, func(t *testing.T) {
				o := options{
					seed:    7,
					measure: 900 * time.Millisecond,
					warmup:  200 * time.Millisecond,
					setups:  2,
					trace:   traced,
					sizes:   tinySizes,
				}
				ctx := context.Background()
				var rep *report
				var err error
				if traced {
					rep, err = runTraced(ctx, w, o)
				} else {
					var ps []*part
					for k := 1; k <= 2 && err == nil; k++ {
						var p *part
						if p, err = measurePart(ctx, w, o, k); err == nil {
							ps = append(ps, p)
						}
					}
					if err == nil {
						rep, err = pool(ps, o)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := rep.Metrics[d.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.unit {
						t.Errorf("%s: %+v", d.name, v)
					}
				}
			})
		}
	}
}

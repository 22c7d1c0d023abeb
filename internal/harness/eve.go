package harness

import (
	"fmt"
	"time"

	"scoopqs/internal/eve"
)

// Eve regenerates the structure of the paper's §4.5: EVE (the
// production lock-based runtime with EiffelStudio's handicaps) against
// EVE/Qs (QoQ + dynamic coalescing, same handicaps) and the
// unhandicapped SCOOP/Qs reference, on a pull-heavy parallel workload
// and a reservation-heavy coordination workload.
func (o Options) Eve() {
	section(o.Out, "§4.5 EVE/Qs",
		"The Qs techniques inside a handicapped (EiffelStudio-like) runtime.\nPaper: EVE/Qs over EVE geomean 7.7x parallel, 11.7x concurrency,\n9.7x overall; EVE/Qs slower than SCOOP/Qs absolute.")

	pullN := o.Cow.NR * o.Cow.NR / 4
	clients, iters := o.Conc.N, o.Conc.M/4+1
	variants := []string{eve.VariantEVE, eve.VariantEVEQs, eve.VariantQs}
	results := make(map[string]eve.Results, len(variants))
	for _, v := range variants {
		v := v
		var r eve.Results
		best := time.Duration(0)
		for rep := 0; rep < max(1, o.Reps); rep++ {
			got := eve.Run(v, pullN, clients, iters)
			if best == 0 || got.Parallel+got.Conc < best {
				best = got.Parallel + got.Conc
				r = got
			}
		}
		results[v] = r
	}

	tb := newTable(o.Out)
	tb.row("Variant", "parallel(s)", "concurrency(s)", "geomean(s)")
	for _, v := range variants {
		r := results[v]
		gm := GeoMean([]time.Duration{r.Parallel, r.Conc})
		tb.row(v, Seconds(r.Parallel), Seconds(r.Conc), Seconds(gm))
	}
	tb.flush()

	evp, evc := results[eve.VariantEVE], results[eve.VariantEVEQs]
	par := float64(evp.Parallel) / float64(evc.Parallel)
	con := float64(evp.Conc) / float64(evc.Conc)
	all := float64(GeoMean([]time.Duration{evp.Parallel, evp.Conc})) /
		float64(GeoMean([]time.Duration{evc.Parallel, evc.Conc}))
	fmt.Fprintf(o.Out, "\nEVE/Qs over EVE: parallel %.1fx, concurrency %.1fx, overall %.1fx\n", par, con, all)
	fmt.Fprintf(o.Out, "(paper: 7.7x, 11.7x, 9.7x)\n")
}

package core

import (
	"context"
	"math"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/multicore"
	"repro/internal/nvm"
	"repro/internal/report"
	"repro/internal/tech"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Multicore speedup models and the 1000-way limit",
		PaperClaim: "Future growth must come from massive on-chip parallelism; " +
			"communication energy will outgrow computation energy and require " +
			"rethinking 1,000-way parallelism (§1.2, §2.2)",
		Params: []ParamSpec{
			{Name: "f", Kind: FloatParam, Default: 0.975, Min: 0.5, Max: 0.9999,
				Doc: "parallel fraction of the workload (Hill-Marty f)"},
			{Name: "bces", Kind: IntParam, Default: 256, Min: 16, Max: 4096,
				Doc: "chip budget in base-core equivalents (Hill-Marty n)"},
		},
		Run: runE7,
	})
	register(Experiment{
		ID:    "T2",
		Title: "Regenerate Table 2: 20th vs 21st century architecture",
		PaperClaim: "Three shifts: single-chip performance to infrastructure, " +
			"ILP to energy-first, tried-and-tested to new technologies",
		Run: runT2,
	})
}

// e7CommFinding is E7's communication-energy finding: 1000-way scaling
// under a power budget, with constants of the model — no parameter of E7
// reaches it, so it is computed and formatted once per process.
var e7CommFinding = sync.OnceValue(func() string {
	cm := multicore.CommModel{OpEnergy: 1e-12, CommEnergyPerHop: 2e-13, CommFrac: 0.2}
	s64 := cm.EffectiveSpeedup(0.999, 64, 100, 1)
	s1024 := cm.EffectiveSpeedup(0.999, 1024, 100, 1)
	ppwDrop := cm.PerfPerWatt(1) / cm.PerfPerWatt(1024)
	return finding("with communication energy, 1024 cores deliver %.0fx under a 100W cap vs %.0fx at 64 cores — %.1fx perf/W lost to communication (paper: rethink 1000-way parallelism)",
		s1024, s64, ppwDrop)
})

// e7Figure is E7's figure in one allocation: the figure, its three series
// and the list of them. A cold sweep runs E7 per point. The findings and
// the headline stay apart, so a caller that keeps only those (a sweep's
// summary, a verifier's golden copy) does not keep the figure alive.
type e7Figure struct {
	fig    report.Figure
	series [3]report.Series
	list   [3]*report.Series
}

func runE7(ctx context.Context, p Params) Result {
	f := p.Float("f")
	n := float64(p.Int("bces"))
	// The title and the r-ladder are built on the stack. f is in the
	// schema's [0.5, 0.9999], where report.FormatFloat is 'g' with four
	// digits. The ladder is the powers of two up to n, then n itself: at
	// most 13 rungs for the schema's largest n, 4096.
	var title [80]byte
	t := append(title[:0], "E7: Hill-Marty speedup on a "...)
	t = strconv.AppendInt(t, int64(p.Int("bces")), 10)
	t = strconv.AppendFloat(append(t, "-BCE chip, f="...), f, 'g', 4, 64)
	var ladder [13]float64
	rs := ladder[:0]
	for r := 1.0; r <= n; r *= 2 {
		rs = append(rs, r)
	}
	if last := rs[len(rs)-1]; last != n {
		rs = append(rs, n)
	}
	ef := &e7Figure{}
	ef.fig = report.Figure{Title: string(t), XLabel: "r (BCEs per big core)", YLabel: "speedup", Series: ef.list[:]}
	points := make([]report.Point, 3*len(rs)) // the figure's second allocation: every series' points
	for i, name := range [3]string{"symmetric", "asymmetric", "dynamic"} {
		ef.series[i] = report.Series{Name: name, Points: points[i*len(rs) : i*len(rs) : (i+1)*len(rs)]}
		ef.list[i] = &ef.series[i]
	}
	sym, asym, dyn := &ef.series[0], &ef.series[1], &ef.series[2]
	for _, r := range rs {
		sym.Add(r, multicore.SymmetricSpeedup(f, n, r))
		asym.Add(r, multicore.AsymmetricSpeedup(f, n, r))
		dyn.Add(r, multicore.DynamicSpeedup(f, n, r))
	}
	bestR, bestS := multicore.OptimalSymmetricR(f, n)
	res := Result{
		Figure: &ef.fig,
		Findings: []string{
			e7OptimumFinding(bestR, bestS),
			"asymmetric beats symmetric everywhere; dynamic bounds both (Hill-Marty shape)",
			e7CommFinding(),
		},
	}
	res.SetHeadline(bestS)
	return res
}

// e7OptimumFinding is E7's first finding, the bytes of
// finding("symmetric optimum at r=%.0f with %.1fx (interior optimum:
// neither sea-of-small-cores nor one big core)", r, s), appended by hand:
// a cold sweep formats one per point.
func e7OptimumFinding(r, s float64) string {
	var buf [128]byte
	b := appendFixed(append(buf[:0], "symmetric optimum at r="...), r, 0)
	b = appendFixed(append(b, " with "...), s, 1)
	return string(append(b, "x (interior optimum: neither sea-of-small-cores nor one big core)"...))
}

// appendFixed appends v as fmt's %.0f (prec 0) or %.1f (prec 1) writes it.
// Those take strconv's 'f' form, which rounds a fixed precision through
// the multiprecision bigFtoa. For 1 <= v < 1e15 the digits through the
// first decimal are at most 16 significant digits, which the 'e' form
// rounds exactly — ties to even, as bigFtoa does — on its fast path; they
// are asked for that way and laid out here. An integral v is written as
// the integer it is; anything outside the range takes AppendFloat's 'f'.
func appendFixed(dst []byte, v float64, prec int) []byte {
	if !(v >= 1 && v < 1e15) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	if v == math.Trunc(v) {
		dst = strconv.AppendInt(dst, int64(v), 10)
		if prec > 0 {
			dst = append(dst, '.', '0')
		}
		return dst
	}
	intDigits := 1
	for p := 10.0; v >= p; p *= 10 { // every power of ten up to 1e15 is exact
		intDigits++
	}
	var buf [32]byte
	e := strconv.AppendFloat(buf[:0], v, 'e', intDigits+prec-1, 64) // d[.ddd]e+XX
	var digits [24]byte
	nd, exp := 0, 0
	for i, c := range e {
		if c == 'e' {
			for _, c := range e[i+2:] { // past "e+": v >= 1
				exp = exp*10 + int(c-'0')
			}
			break
		}
		if c != '.' {
			digits[nd] = c
			nd++
		}
	}
	// Rounding up can carry into a new leading digit (9.96 -> "1.0e+01"):
	// the integer part is then exp+1 digits, the last of them a padded 0.
	for i := 0; i < exp+1+prec; i++ {
		if i == exp+1 {
			dst = append(dst, '.')
		}
		c := byte('0')
		if i < nd {
			c = digits[i]
		}
		dst = append(dst, c)
	}
	return dst
}

func runT2(ctx context.Context, _ Params) Result {
	// Row 1: single-chip performance -> infrastructure (tail latency is a
	// system property, not a chip property).
	deanFrac := cluster.FractionAboveQuantile(100, 0.99)
	// Row 2: ILP -> energy first.
	gap := tech.PowerGapAtGen(5)
	bestR, _ := multicore.OptimalSymmetricR(0.975, 256)
	// Row 3: tried-and-tested -> new technologies.
	w := nvm.TxnWorkload{ReadsPerTxn: 20, PersistsPerTxn: 2}
	persistGain := float64(nvm.LegacyStack().TxnLatency(w)) /
		float64(nvm.NVMStack().TxnLatency(w))
	m := tech.NewNTVModel(tech.Node45(), 100e-12)
	_, eMin := m.MinEnergyPoint()
	ntvGain := m.EnergyPerOp(m.Node.Vdd) / eMin

	tbl := report.NewTable("T2: Table 2 regenerated from models",
		"20th century", "21st century", "measured evidence")
	tbl.AddRow("single-chip performance",
		"architecture as infrastructure",
		finding("fan-out 100 makes %.0f%% of requests see leaf p99 — performance is now a cluster property (E3)", deanFrac*100))
	tbl.AddRow("software-invisible ILP",
		"energy first: parallelism, specialization, cross-layer",
		finding("post-Dennard power gap %.0fx after 5 gens; Hill-Marty optimum r=%.0f; specialization ~100x (E1, E4, E7)", gap, bestR))
	tbl.AddRow("tried-and-tested CMOS/DRAM/disks",
		"NVM, near-threshold, 3D, photonics",
		finding("NVM collapses persist latency %.0fx; NTV cuts energy/op %.1fx (E8, E9)", persistGain, ntvGain))
	return Result{
		Table: tbl,
		Findings: []string{
			finding("all three of Table 2's shifts carry measurable, model-backed magnitude"),
		},
	}
}

// Package shapecheck asserts the paper's qualitative config-vs-config
// orderings ("expected shapes", DESIGN.md §4) against a machine-readable
// result document. It is the contract CI enforces on every change: the
// reproduction's claim is the *shape* of Figures 9-12 — which
// configuration beats which — not absolute cycle counts, so these are the
// regressions worth failing a build over.
//
// Expected shapes checked (paper, Section VII):
//
//	E3 (Figure 9):  Base is slower than HCC; B+M+I beats Base and lands
//	                near HCC (paper: Base ≈ +20%, B+M+I ≈ +2%).
//	E4 (Figure 10): B+M+I generates zero invalidation traffic and no more
//	                total traffic than HCC plus tolerance (paper: −4%).
//	E5 (Figure 11): EP and IS keep all their global operations (pure
//	                reductions), CG keeps its WBs but drops INVs, Jacobi
//	                drops both sharply (paper: to ~25%).
//	E6 (Figure 12): Addr+L ≤ Addr ≤ Base on average; Addr+L stays near
//	                HCC (paper: ≈ +5%).
//
// Each rule only fires when its figure is present, so intra-only and
// inter-only documents check cleanly. The rules read the document's
// stats.Figures through MeanTotals and Height; on an encoded document
// these equal the encoded totals, since a total is the finite sum of its
// segments and JSON carries no NaN or infinity.
package shapecheck

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/envelope"
	"repro/internal/runner"
	"repro/internal/stats"
)

// Tolerances. The orderings are qualitative; the slack absorbs scale
// noise (the test-scale inputs are far smaller than the paper's) without
// letting a real inversion through.
const (
	// eqTol bounds values that must be exactly-normalized (HCC bars,
	// unchanged-fraction bars) — these are computed ratios, so only
	// float rounding applies.
	eqTol = 1e-9
	// bmiNearHCCSlack is how far above HCC B+M+I may land. The paper
	// reports ≈ +2% at full scale; at test scale the scaled-down inputs
	// expose more of the WB/INV latency (observed ≈ +23%), so the gate
	// sits at +35% — far below Base's ≈ +105%, so a B+M+I regression
	// toward Base still trips it.
	bmiNearHCCSlack = 0.35
	// addrLNearHCCSlack is how far above HCC Addr+L may land (the paper
	// reports ≈ +5%; observed ≈ +1% at test scale).
	addrLNearHCCSlack = 0.15
	// orderSlack lets a "≤" ordering pass when the two sides are within
	// 2% of each other (reduction-bound apps differ by noise).
	orderSlack = 0.02
	// trafficSlack is how much more total traffic than HCC the B+M+I
	// configuration may generate (the paper reports less).
	trafficSlack = 0.05
	// sharpDrop is the largest "dropped sharply" fraction allowed for
	// Jacobi's surviving global operations (paper: ~25% survive).
	sharpDrop = 0.6
)

// Violation is one broken expected shape.
type Violation struct {
	// Figure is the artifact the rule belongs to ("figure9", ...).
	Figure string
	// Rule names the expectation.
	Rule string
	// Detail states the observed values.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Figure, v.Rule, v.Detail)
}

// Check evaluates every applicable expected shape against doc and returns
// the violations (empty means the document passes).
func Check(doc *runner.Document) []Violation {
	var vs []Violation
	// Only a hic/v2 document of kind "results" can be shape-checked.
	if doc.Schema != envelope.SchemaV2 {
		return []Violation{{Figure: "document", Rule: "schema version",
			Detail: fmt.Sprintf("got %q, want %q", doc.Schema, envelope.SchemaV2)}}
	}
	if doc.Kind != envelope.KindResults {
		return []Violation{{Figure: "document", Rule: "document kind",
			Detail: fmt.Sprintf("got %q, want %q", doc.Kind, envelope.KindResults)}}
	}
	vs = append(vs, checkRuns(doc)...)
	if f := doc.FigureByID("figure9"); f != nil {
		vs = append(vs, checkFigure9(f)...)
	}
	if f := doc.FigureByID("figure10"); f != nil {
		vs = append(vs, checkFigure10(f)...)
	}
	if f := doc.FigureByID("figure11"); f != nil {
		vs = append(vs, checkFigure11(f)...)
	}
	if f := doc.FigureByID("figure12"); f != nil {
		vs = append(vs, checkFigure12(f)...)
	}
	return vs
}

// Render formats violations one per line for CI logs.
func Render(vs []Violation) string {
	if len(vs) == 0 {
		return "shapecheck: all expected orderings hold\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shapecheck: %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return b.String()
}

// checkRuns fails on any errored cell: a sweep with failed runs has
// figures assembled from partial data.
func checkRuns(doc *runner.Document) []Violation {
	var vs []Violation
	for _, r := range doc.Runs {
		if r.Error != "" {
			vs = append(vs, Violation{Figure: "runs", Rule: "all runs succeed",
				Detail: fmt.Sprintf("%s/%s: %s", r.Workload, r.Config, r.Error)})
		}
	}
	return vs
}

// barOf returns group g's bar with the given label, or nil.
func barOf(g *stats.Group, label string) *stats.Bar {
	for i := range g.Bars {
		if g.Bars[i].Label == label {
			return &g.Bars[i]
		}
	}
	return nil
}

// requireBaseline checks every group's baseline bar totals exactly 1.0
// (the normalization contract keyed assembly must uphold in any config
// order).
func requireBaseline(f *stats.Figure, label string) []Violation {
	var vs []Violation
	for i := range f.Groups {
		g := &f.Groups[i]
		b := barOf(g, label)
		if b == nil {
			vs = append(vs, Violation{Figure: f.ID, Rule: label + " baseline present",
				Detail: fmt.Sprintf("%s has no %s bar", g.Name, label)})
			continue
		}
		if math.Abs(b.Height()-1) > eqTol {
			vs = append(vs, Violation{Figure: f.ID, Rule: label + " normalized to 1.0",
				Detail: fmt.Sprintf("%s %s total = %.6f", g.Name, label, b.Height())})
		}
	}
	return vs
}

func checkFigure9(f *stats.Figure) []Violation {
	vs := requireBaseline(f, "HCC")
	m := f.MeanTotals()
	base, bmi := m["Base"], m["B+M+I"]
	if base <= 1 {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Base slower than HCC",
			Detail: fmt.Sprintf("mean Base = %.4f, want > 1.0", base)})
	}
	if bmi > base*(1+orderSlack) {
		vs = append(vs, Violation{Figure: f.ID, Rule: "B+M+I ≤ Base",
			Detail: fmt.Sprintf("mean B+M+I = %.4f above mean Base = %.4f", bmi, base)})
	}
	if bmi > 1+bmiNearHCCSlack {
		vs = append(vs, Violation{Figure: f.ID, Rule: "B+M+I near HCC",
			Detail: fmt.Sprintf("mean B+M+I = %.4f, want ≤ %.2f", bmi, 1+bmiNearHCCSlack)})
	}
	return vs
}

func checkFigure10(f *stats.Figure) []Violation {
	vs := requireBaseline(f, "HCC")
	invIdx := -1
	for i, c := range f.Categories {
		if c == "invalidation" {
			invIdx = i
		}
	}
	for i := range f.Groups {
		g := &f.Groups[i]
		b := barOf(g, "B+M+I")
		if b == nil {
			vs = append(vs, Violation{Figure: f.ID, Rule: "B+M+I bar present",
				Detail: fmt.Sprintf("%s has no B+M+I bar", g.Name)})
			continue
		}
		if invIdx >= 0 && invIdx < len(b.Segments) && b.Segments[invIdx] != 0 {
			vs = append(vs, Violation{Figure: f.ID, Rule: "B+M+I has no invalidation traffic",
				Detail: fmt.Sprintf("%s B+M+I invalidation = %.6f", g.Name, b.Segments[invIdx])})
		}
	}
	if m := f.MeanTotals(); m["B+M+I"] > 1+trafficSlack {
		vs = append(vs, Violation{Figure: f.ID, Rule: "B+M+I traffic ≤ HCC",
			Detail: fmt.Sprintf("mean B+M+I traffic = %.4f, want ≤ %.2f", m["B+M+I"], 1+trafficSlack)})
	}
	return vs
}

func checkFigure11(f *stats.Figure) []Violation {
	var vs []Violation
	// Segments are [global WB fraction, global INV fraction] vs Addr.
	frac := func(name string) []float64 {
		for i := range f.Groups {
			if f.Groups[i].Name == name {
				if b := barOf(&f.Groups[i], "Addr+L"); b != nil {
					return b.Segments
				}
			}
		}
		return nil
	}
	// EP is a pure reduction: the compiler can prove nothing, so Addr+L
	// must leave every global operation in place. IS is reduction-bound
	// too, but its permutation phase lets a small share of INVs localize
	// at test scale (observed ≈ 11%); what it must not do is drop
	// sharply like Jacobi.
	if s := frac("ep"); s == nil {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L bar present", Detail: "ep missing"})
	} else {
		for i, kind := range []string{"WB", "INV"} {
			if i < len(s) && math.Abs(s[i]-1) > eqTol {
				vs = append(vs, Violation{Figure: f.ID, Rule: "ep unchanged under Addr+L",
					Detail: fmt.Sprintf("ep global %s fraction = %.4f, want 1.0", kind, s[i])})
			}
		}
	}
	if s := frac("is"); s == nil {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L bar present", Detail: "is missing"})
	} else {
		for i, kind := range []string{"WB", "INV"} {
			if i < len(s) && (s[i] <= sharpDrop || s[i] > 1+eqTol) {
				vs = append(vs, Violation{Figure: f.ID, Rule: "is essentially unchanged under Addr+L",
					Detail: fmt.Sprintf("is global %s fraction = %.4f, want in (%.2f, 1.0]", kind, s[i], sharpDrop)})
			}
		}
	}
	if s := frac("jacobi"); s != nil {
		for i, kind := range []string{"WB", "INV"} {
			if i < len(s) && s[i] > sharpDrop {
				vs = append(vs, Violation{Figure: f.ID, Rule: "jacobi global ops drop sharply",
					Detail: fmt.Sprintf("global %s fraction = %.4f, want ≤ %.2f", kind, s[i], sharpDrop)})
			}
		}
	} else {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L bar present", Detail: "jacobi missing"})
	}
	if s := frac("cg"); s != nil && len(s) >= 2 {
		if math.Abs(s[0]-1) > orderSlack {
			vs = append(vs, Violation{Figure: f.ID, Rule: "cg keeps global WBs",
				Detail: fmt.Sprintf("global WB fraction = %.4f, want ~1.0", s[0])})
		}
		if s[1] >= 1 || s[1] == 0 {
			vs = append(vs, Violation{Figure: f.ID, Rule: "cg drops some global INVs",
				Detail: fmt.Sprintf("global INV fraction = %.4f, want in (0,1)", s[1])})
		}
	} else {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L bar present", Detail: "cg missing"})
	}
	return vs
}

func checkFigure12(f *stats.Figure) []Violation {
	vs := requireBaseline(f, "HCC")
	m := f.MeanTotals()
	base, addr, addrL := m["Base"], m["Addr"], m["Addr+L"]
	if addr >= base {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr faster than Base",
			Detail: fmt.Sprintf("mean Addr = %.4f, mean Base = %.4f", addr, base)})
	}
	if addrL > addr*(1+orderSlack) {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L ≤ Addr",
			Detail: fmt.Sprintf("mean Addr+L = %.4f above mean Addr = %.4f", addrL, addr)})
	}
	if addrL > 1+addrLNearHCCSlack {
		vs = append(vs, Violation{Figure: f.ID, Rule: "Addr+L near HCC",
			Detail: fmt.Sprintf("mean Addr+L = %.4f, want ≤ %.2f", addrL, 1+addrLNearHCCSlack)})
	}
	return vs
}

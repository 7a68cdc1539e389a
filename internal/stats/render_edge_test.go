package stats

// Table-driven edge cases for the figure renderer: zero-total rows,
// single-category bars, and the NaN/Inf values a normalization against
// a zero baseline can produce. The renderer's contract is that no input
// panics, no output contains NaN or Inf text, and non-finite segments
// count as zero everywhere.

import (
	"math"
	"strings"
	"testing"
)

func edgeFigures() map[string]*Figure {
	nan := math.NaN()
	inf := math.Inf(1)
	return map[string]*Figure{
		"zero-total-row": {
			Title:      "zeros",
			Categories: []string{"a", "b"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{0, 0}},
				{Label: "BMI", Segments: []float64{0.5, 0.25}},
			}}},
		},
		"all-zero-figure": {
			Title:      "flat",
			Categories: []string{"a"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{0}},
			}}},
		},
		"single-category": {
			Title:      "cycles-only",
			Categories: []string{"cycles"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{1.0}},
				{Label: "Addr+L", Segments: []float64{0.69}},
			}}},
		},
		"nan-segment": {
			Title:      "nan",
			Categories: []string{"a", "b"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{nan, 0.5}},
			}}},
		},
		"inf-segments": {
			Title:      "inf",
			Categories: []string{"a", "b"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{inf, math.Inf(-1)}},
				{Label: "BMI", Segments: []float64{0.75, 0.25}},
			}}},
		},
		"empty-category-name": {
			Title:      "anon",
			Categories: []string{""},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{1}},
			}}},
		},
		"more-segments-than-categories": {
			Title:      "ragged",
			Categories: []string{"a"},
			Groups: []Group{{Name: "app", Bars: []Bar{
				{Label: "Base", Segments: []float64{0.5, 0.5, 0.5}},
			}}},
		},
	}
}

func TestRenderersSurviveEdgeCases(t *testing.T) {
	for name, f := range edgeFigures() {
		f := f
		t.Run(name, func(t *testing.T) {
			out := f.Render()
			for _, bad := range []string{"NaN", "Inf"} {
				if strings.Contains(out, bad) {
					t.Errorf("Render leaks %s:\n%s", bad, out)
				}
			}
			if !strings.Contains(out, f.Title) {
				t.Errorf("Render drops the title:\n%s", out)
			}
			for label, v := range f.MeanTotals() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("MeanTotals[%s] = %v", label, v)
				}
			}
		})
	}
}

func TestNonFiniteSegmentsCountAsZero(t *testing.T) {
	cases := []struct {
		name string
		bar  Bar
		want float64
	}{
		{"nan-alone", Bar{Segments: []float64{math.NaN()}}, 0},
		{"nan-plus-half", Bar{Segments: []float64{math.NaN(), 0.5}}, 0.5},
		{"pos-inf", Bar{Segments: []float64{math.Inf(1), 1}}, 1},
		{"neg-inf", Bar{Segments: []float64{math.Inf(-1), 1}}, 1},
		{"finite", Bar{Segments: []float64{0.25, 0.75}}, 1},
		{"empty", Bar{}, 0},
	}
	for _, tc := range cases {
		if got := tc.bar.Height(); got != tc.want {
			t.Errorf("%s: Height() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestZeroBaselineNormalizationIsFinite checks the contract the
// experiment normalization relies on: a zero-cycle or zero-traffic
// baseline produces zero-height bars, never NaN/Inf rows.
func TestZeroBaselineNormalizationIsFinite(t *testing.T) {
	f := &Figure{
		Title:      "zero baseline",
		Categories: []string{"x"},
		Groups: []Group{
			{Name: "a", Bars: []Bar{{Label: "Base", Segments: []float64{math.Inf(1)}}}},
			{Name: "b", Bars: []Bar{{Label: "Base", Segments: []float64{2}}}},
		},
	}
	means := f.MeanTotals()
	if got := means["Base"]; got != 1 {
		t.Errorf("MeanTotals treats Inf bar as %v (want it to count as a zero-height bar, mean 1)", got)
	}
}

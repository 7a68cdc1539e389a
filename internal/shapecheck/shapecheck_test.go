package shapecheck

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/runner"
	"repro/internal/stats"
)

// goodDoc builds a document exhibiting the paper's shapes exactly.
func goodDoc() *runner.Document {
	bar := func(label string, total float64, segs ...float64) stats.Bar {
		if segs == nil {
			segs = []float64{total}
		}
		return stats.Bar{Label: label, Segments: segs, Total: total}
	}
	f9 := stats.Figure{ID: "figure9", Categories: []string{"inv", "wb", "lock", "barrier", "rest"}}
	f10 := stats.Figure{ID: "figure10", Categories: []string{"linefill", "writeback", "invalidation", "memory"}}
	for _, app := range []string{"fft", "cholesky"} {
		f9.Groups = append(f9.Groups, stats.Group{Name: app, Bars: []stats.Bar{
			bar("HCC", 1.0), bar("Base", 1.20), bar("B+M", 1.05),
			bar("B+I", 1.18), bar("B+M+I", 1.02),
		}})
		f10.Groups = append(f10.Groups, stats.Group{Name: app, Bars: []stats.Bar{
			bar("HCC", 1.0, 0.5, 0.2, 0.1, 0.2),
			bar("B+M+I", 0.96, 0.5, 0.21, 0, 0.25),
		}})
	}
	f11 := stats.Figure{ID: "figure11", Categories: []string{"global-wb", "global-inv"}}
	for app, segs := range map[string][]float64{
		"ep": {1, 1}, "is": {1, 1}, "cg": {1, 0.78}, "jacobi": {0.25, 0.25},
	} {
		f11.Groups = append(f11.Groups, stats.Group{Name: app, Bars: []stats.Bar{
			{Label: "Addr", Segments: []float64{1, 1}, Total: 2},
			{Label: "Addr+L", Segments: segs, Total: segs[0] + segs[1]},
		}})
	}
	f12 := stats.Figure{ID: "figure12", Categories: []string{"cycles"}}
	for _, app := range []string{"ep", "is", "cg", "jacobi"} {
		f12.Groups = append(f12.Groups, stats.Group{Name: app, Bars: []stats.Bar{
			bar("HCC", 1.0), bar("Base", 1.52), bar("Addr", 1.10), bar("Addr+L", 1.05),
		}})
	}
	return &runner.Document{
		Schema:  envelope.SchemaV2,
		Kind:    envelope.KindResults,
		Scale:   "test",
		Suite:   "all",
		Figures: []stats.Figure{f9, f10, f11, f12},
		Runs:    []runner.RunRecord{{Workload: "fft", Config: "HCC", Cycles: 1000}},
	}
}

func TestGoodDocumentPasses(t *testing.T) {
	if vs := Check(goodDoc()); len(vs) != 0 {
		t.Fatalf("expected no violations, got:\n%s", Render(vs))
	}
	if vs := Check(decoded(t, goodDoc())); len(vs) != 0 {
		t.Fatalf("decoded copy: expected no violations, got:\n%s", Render(vs))
	}
}

// decoded returns d's copy read back from its encoding, the form the
// gate sees for a served or saved document, and requires that encoding
// the copy writes the same bytes.
func decoded(t *testing.T, d *runner.Document) *runner.Document {
	t.Helper()
	var first, second bytes.Buffer
	if err := d.Encode(&first); err != nil {
		t.Fatal(err)
	}
	back, err := runner.Decode(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Encode(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("Encode -> Decode -> Encode changed the document:\n%s\nre-encoded:\n%s", first.Bytes(), second.Bytes())
	}
	return back
}

func TestSchemaVersionRejected(t *testing.T) {
	for _, schema := range []string{"hic-results/v0", "hic-results/v1"} {
		d := goodDoc()
		d.Schema = schema
		vs := Check(d)
		if len(vs) != 1 || vs[0].Rule != "schema version" {
			t.Errorf("%s: want single schema violation, got %v", schema, vs)
		}
	}
}

func TestFailedRunIsViolation(t *testing.T) {
	d := goodDoc()
	d.Runs = append(d.Runs, runner.RunRecord{
		Workload: "barnes", Config: "Base", Error: "barnes/Base: run exceeded timeout 1s",
	})
	vs := Check(d)
	if !hasRule(vs, "all runs succeed") {
		t.Fatalf("timeout run not flagged: %v", vs)
	}
}

func TestBrokenOrderingsAreCaught(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(d *runner.Document)
		rule   string
	}{
		{"BMI slower than Base", func(d *runner.Document) {
			setTotal(d, "figure9", "fft", "B+M+I", 1.4)
			setTotal(d, "figure9", "cholesky", "B+M+I", 1.4)
		}, "B+M+I ≤ Base"},
		{"Base faster than HCC", func(d *runner.Document) {
			setTotal(d, "figure9", "fft", "Base", 0.9)
			setTotal(d, "figure9", "cholesky", "Base", 0.9)
		}, "Base slower than HCC"},
		{"HCC not normalized", func(d *runner.Document) {
			setTotal(d, "figure9", "fft", "HCC", 1.3)
		}, "HCC normalized to 1.0"},
		{"BMI emits invalidations", func(d *runner.Document) {
			f := d.FigureByID("figure10")
			f.Groups[0].Bars[1].Segments[2] = 0.05
		}, "B+M+I has no invalidation traffic"},
		{"EP changed under Addr+L", func(d *runner.Document) {
			f := d.FigureByID("figure11")
			for i := range f.Groups {
				if f.Groups[i].Name == "ep" {
					f.Groups[i].Bars[1].Segments[0] = 0.5
				}
			}
		}, "ep unchanged under Addr+L"},
		{"IS drops sharply under Addr+L", func(d *runner.Document) {
			f := d.FigureByID("figure11")
			for i := range f.Groups {
				if f.Groups[i].Name == "is" {
					f.Groups[i].Bars[1].Segments = []float64{0.3, 0.3}
				}
			}
		}, "is essentially unchanged under Addr+L"},
		{"jacobi keeps global ops", func(d *runner.Document) {
			f := d.FigureByID("figure11")
			for i := range f.Groups {
				if f.Groups[i].Name == "jacobi" {
					f.Groups[i].Bars[1].Segments = []float64{0.9, 0.9}
				}
			}
		}, "jacobi global ops drop sharply"},
		{"AddrL slower than Addr", func(d *runner.Document) {
			for _, app := range []string{"ep", "is", "cg", "jacobi"} {
				setTotal(d, "figure12", app, "Addr+L", 1.3)
			}
		}, "Addr+L ≤ Addr"},
		{"Addr slower than Base", func(d *runner.Document) {
			for _, app := range []string{"ep", "is", "cg", "jacobi"} {
				setTotal(d, "figure12", app, "Addr", 1.6)
			}
		}, "Addr faster than Base"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := goodDoc()
			c.break_(d)
			vs := Check(d)
			if !hasRule(vs, c.rule) {
				t.Errorf("violation %q not raised; got:\n%s", c.rule, Render(vs))
			}
			if back := Check(decoded(t, d)); !reflect.DeepEqual(back, vs) {
				t.Errorf("decoded copy gives different violations:\n%s\nwant:\n%s", Render(back), Render(vs))
			}
		})
	}
}

func TestPartialDocumentsCheckOnlyPresentFigures(t *testing.T) {
	d := goodDoc()
	d.Figures = d.Figures[:2] // intra only
	d.Suite = "intra"
	if vs := Check(d); len(vs) != 0 {
		t.Fatalf("intra-only document should pass: %v", vs)
	}
	d = goodDoc()
	d.Figures = d.Figures[2:] // inter only
	d.Suite = "inter"
	if vs := Check(d); len(vs) != 0 {
		t.Fatalf("inter-only document should pass: %v", vs)
	}
}

func TestRenderListsEveryViolation(t *testing.T) {
	d := goodDoc()
	setTotal(d, "figure9", "fft", "HCC", 2)
	setTotal(d, "figure12", "ep", "HCC", 2)
	out := Render(Check(d))
	if !strings.Contains(out, "figure9") || !strings.Contains(out, "figure12") {
		t.Errorf("render missing figures:\n%s", out)
	}
	if Render(nil) == "" || strings.Contains(Render(nil), "violation") {
		t.Errorf("empty render wrong: %q", Render(nil))
	}
}

func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

func setTotal(d *runner.Document, fig, group, label string, total float64) {
	f := d.FigureByID(fig)
	for i := range f.Groups {
		if f.Groups[i].Name != group {
			continue
		}
		for j := range f.Groups[i].Bars {
			if f.Groups[i].Bars[j].Label == label {
				f.Groups[i].Bars[j].Total = total
				f.Groups[i].Bars[j].Segments = []float64{total}
			}
		}
	}
}

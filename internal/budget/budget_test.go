package budget

import (
	"os"
	"path/filepath"
	"testing"
)

const canned = `# sdcmd/internal/force
internal/force/eam.go:10:6: can inline pairRange
internal/force/eam.go:22:13: inlining call to pairRange
internal/force/eam.go:30:7: z does not escape
internal/force/eam.go:31:12: make([]float64, n) escapes to heap
internal/force/eam.go:31:12: make([]float64, n) escapes to heap
internal/force/eam.go:40:9: moved to heap: acc
internal/force/eam.go:44:3: leaking param: out
internal/force/eam.go:50:14: Found IsInBounds
internal/force/eam.go:51:14: Found IsSliceInBounds
<autogenerated>:1:0: Found IsInBounds
internal/strategy/pool.go:12:9: func literal escapes to heap
internal/strategy/pool.go:19:11: Found IsInBounds
internal/strategy/pool.go:19:11: Found IsInBounds
/home/dev/sdk/go/src/slices/zsortordered.go:70:9: Found IsInBounds
`

// TestParseClassifies pins the parser: deduplicated lines, escape and
// bounds classification, noise (inlining, leaking param, does not
// escape, package headers, autogenerated wrappers) dropped, toolchain
// paths keyed relative to GOROOT.
func TestParseClassifies(t *testing.T) {
	files := Parse(canned)
	want := map[string]Counts{
		"internal/force/eam.go":     {Escapes: 2, Bounds: 2},
		"internal/strategy/pool.go": {Escapes: 1, Bounds: 1},
		// Instantiated standard-library generics, keyed by GOROOT.
		"$GOROOT/src/slices/zsortordered.go": {Bounds: 1},
	}
	if len(files) != len(want) {
		t.Fatalf("parsed files = %v, want %v", files, want)
	}
	for f, c := range want {
		if files[f] != c {
			t.Errorf("%s = %+v, want %+v", f, files[f], c)
		}
	}
}

// TestDiff pins regression/improvement detection across changed, new
// and removed files, in deterministic order.
func TestDiff(t *testing.T) {
	base := &Report{Files: map[string]Counts{
		"a.go": {Escapes: 2, Bounds: 5},
		"b.go": {Escapes: 1, Bounds: 0},
		"c.go": {Escapes: 0, Bounds: 3},
	}}
	cur := &Report{Files: map[string]Counts{
		"a.go": {Escapes: 3, Bounds: 4}, // escape regression, bounds improvement
		"b.go": {Escapes: 1, Bounds: 0}, // unchanged
		"d.go": {Escapes: 0, Bounds: 2}, // new file regression
	}}
	reg, imp := Diff(base, cur)
	wantReg := []Delta{
		{File: "a.go", Metric: "escapes", Old: 2, New: 3},
		{File: "d.go", Metric: "bounds", Old: 0, New: 2},
	}
	// c.go's removal improves bounds 3->0; its escapes were already 0.
	wantImp := []Delta{
		{File: "a.go", Metric: "bounds", Old: 5, New: 4},
		{File: "c.go", Metric: "bounds", Old: 3, New: 0},
	}
	if len(reg) != len(wantReg) {
		t.Fatalf("regressions = %v, want %v", reg, wantReg)
	}
	for i := range reg {
		if reg[i] != wantReg[i] {
			t.Errorf("regression[%d] = %v, want %v", i, reg[i], wantReg[i])
		}
	}
	if len(imp) != len(wantImp) {
		t.Fatalf("improvements = %v, want %v", imp, wantImp)
	}
	for i := range imp {
		if imp[i] != wantImp[i] {
			t.Errorf("improvement[%d] = %v, want %v", i, imp[i], wantImp[i])
		}
	}
}

// TestComputeTempModule runs the real toolchain over a module seeded
// with one guaranteed escape and one dynamic index the prover cannot
// eliminate, end to end through Compute.
func TestComputeTempModule(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module scratch\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package scratch

func Escape() *int {
	v := 42
	return &v
}

func Index(xs []float64, i int) float64 {
	return xs[i]
}
`
	if err := os.WriteFile(filepath.Join(dir, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Compute(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if r.Total.Escapes < 1 {
		t.Errorf("expected at least one escape, got %+v", r.Total)
	}
	if r.Total.Bounds < 1 {
		t.Errorf("expected at least one bounds check, got %+v", r.Total)
	}
	if r.Go == "" {
		t.Error("report missing toolchain version")
	}
}

// TestReportRoundTrip pins the committed-file format: write, read,
// self-diff is empty.
func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Go:       "go1.24.0",
		Patterns: []string{"./internal/force"},
		Files:    map[string]Counts{"internal/force/eam.go": {Escapes: 2, Bounds: 7}},
		Total:    Counts{Escapes: 2, Bounds: 7},
	}
	path := filepath.Join(t.TempDir(), "LINT_kernel.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	reg, imp := Diff(r, got)
	if len(reg) != 0 || len(imp) != 0 {
		t.Errorf("round trip not identical: regressions %v improvements %v", reg, imp)
	}
	if got.Go != r.Go || got.Total != r.Total {
		t.Errorf("round trip lost metadata: %+v", got)
	}
}

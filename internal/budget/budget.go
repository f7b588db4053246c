// Package budget implements the compiler-diagnostics kernel-budget
// gate. The force kernels and parallel strategies live or die on two
// compiler properties the test suite cannot see: whether hot-path
// values stay off the heap (escape analysis) and whether slice indexing
// in the sweep loops keeps its bounds checks (BCE). Both regress
// silently — an innocent refactor can box a value or defeat the
// prover — and only show up later as allocation noise or a slower
// sweep. The gate makes them diffable: `go build` with
// -gcflags='-m=1 -d=ssa/check_bce/debug=1' replays the compiler's
// escape and bounds-check diagnostics (the build cache replays them on
// cached rebuilds, so the probe is cheap), the parser reduces them to
// per-file counts, and CI fails when a file's count exceeds the
// committed baseline (LINT_kernel.json).
//
// Counts, not positions: line numbers churn with every edit, but the
// number of escaping values and retained bounds checks in a file is
// stable until the code's shape actually changes. A decrease is
// reported as an improvement so the baseline can be re-recorded; an
// increase fails the gate.
package budget

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Gcflags is the exact flag string the gate builds with.
const Gcflags = "-m=1 -d=ssa/check_bce/debug=1"

// DefaultPatterns are the kernel packages under budget.
var DefaultPatterns = []string{"./internal/force", "./internal/neighbor", "./internal/strategy"}

// Counts aggregates one file's diagnostics.
type Counts struct {
	// Escapes counts values the compiler moves to the heap ("escapes to
	// heap", "moved to heap").
	Escapes int `json:"escapes"`
	// Bounds counts retained bounds checks ("Found IsInBounds",
	// "Found IsSliceInBounds").
	Bounds int `json:"bounds"`
}

// Report is the committed budget artifact.
type Report struct {
	// Go records the toolchain that produced the counts; diagnostics
	// shift between compiler releases, so a mismatch is surfaced as a
	// warning alongside any diff.
	Go       string            `json:"go"`
	Patterns []string          `json:"patterns"`
	Files    map[string]Counts `json:"files"`
	Total    Counts            `json:"total"`
}

// Compute builds patterns under root with the diagnostic flags and
// parses the replayed output into a report.
func Compute(root string, patterns []string) (*Report, error) {
	args := append([]string{"build", "-gcflags=" + Gcflags}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build for kernel budget failed: %v\n%s", err, out)
	}
	r := &Report{Go: runtime.Version(), Patterns: patterns, Files: Parse(string(out))}
	for _, c := range r.Files {
		r.Total.Escapes += c.Escapes
		r.Total.Bounds += c.Bounds
	}
	return r, nil
}

// Parse reduces raw compiler output to per-file counts. The compiler
// replays a package's diagnostics once per build that reaches it, so
// identical lines are deduplicated before counting.
func Parse(out string) map[string]Counts {
	files := map[string]Counts{}
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || seen[line] {
			continue
		}
		seen[line] = true
		i := strings.Index(line, ".go:")
		if i < 0 {
			continue
		}
		file := line[:i+3]
		if strings.HasPrefix(file, "<") {
			continue // <autogenerated> wrappers are not budgeted
		}
		if j := strings.LastIndex(file, "/src/"); j >= 0 && filepath.IsAbs(file) {
			// Standard-library generics instantiated in a kernel
			// (slices.Sort) report under the toolchain's install path;
			// key them relative to GOROOT so the baseline ports.
			file = "$GOROOT" + file[j:]
		}
		rest := line[i+4:]
		if j := strings.Index(rest, ": "); j >= 0 {
			rest = rest[j+2:]
		} else {
			continue
		}
		c := files[file]
		switch {
		case strings.HasSuffix(rest, "escapes to heap"), strings.Contains(rest, "moved to heap"):
			c.Escapes++
		case strings.Contains(rest, "Found IsInBounds"), strings.Contains(rest, "Found IsSliceInBounds"):
			c.Bounds++
		default:
			continue
		}
		files[file] = c
	}
	return files
}

// Delta is one per-file, per-metric change between two reports.
type Delta struct {
	File   string
	Metric string // "escapes" or "bounds"
	Old    int
	New    int
}

func (d Delta) String() string {
	return fmt.Sprintf("%s: %s %d -> %d", d.File, d.Metric, d.Old, d.New)
}

// Diff returns the regressions (count increases, including new files)
// and improvements (decreases) of cur against base, each sorted by
// file then metric.
func Diff(base, cur *Report) (regressions, improvements []Delta) {
	union := map[string]bool{}
	for f := range base.Files {
		union[f] = true
	}
	for f := range cur.Files {
		union[f] = true
	}
	files := make([]string, 0, len(union))
	for f := range union {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		b, c := base.Files[f], cur.Files[f]
		for _, m := range [2]struct {
			name     string
			old, new int
		}{{"bounds", b.Bounds, c.Bounds}, {"escapes", b.Escapes, c.Escapes}} {
			switch {
			case m.new > m.old:
				regressions = append(regressions, Delta{File: f, Metric: m.name, Old: m.old, New: m.new})
			case m.new < m.old:
				improvements = append(improvements, Delta{File: f, Metric: m.name, Old: m.old, New: m.new})
			}
		}
	}
	return regressions, improvements
}

// WriteFile persists the report as indented JSON with a trailing
// newline, the committed LINT_kernel.json format.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a committed report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

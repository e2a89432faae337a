// Golden tables: every table and figure of the evaluation, rendered
// from a live analysis and from the daemon's index read path, must
// equal the reference output under spexbench/expected/ byte for byte.
package spex_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spex/internal/campaignstore"
	"spex/internal/report"
)

// goldenOutput is one rendered table or figure and the reference file
// holding it as spexeval prints it (the render plus a newline).
type goldenOutput struct {
	file   string
	render func([]*report.SystemResult) (string, error)
}

// goldenOutputs lists every table and figure in spexeval's order, with
// the benchmark's file mapping: table09.txt carries tables 9 and 10,
// which render together.
func goldenOutputs() []goldenOutput {
	var out []goldenOutput
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12} {
		n := n
		out = append(out, goldenOutput{fmt.Sprintf("table%02d.txt", n), func(rs []*report.SystemResult) (string, error) {
			return report.RenderTableText(n, rs)
		}})
	}
	figures := []func([]*report.SystemResult) (string, error){
		func([]*report.SystemResult) (string, error) { return report.Figure1() },
		func([]*report.SystemResult) (string, error) { return report.Figure2() },
		func(rs []*report.SystemResult) (string, error) { return report.Figure3(rs), nil },
		func([]*report.SystemResult) (string, error) { return report.Figure4(), nil },
		func([]*report.SystemResult) (string, error) { return report.Figure5() },
		func(rs []*report.SystemResult) (string, error) { return report.Figure6(rs), nil },
		func([]*report.SystemResult) (string, error) { return report.Figure7() },
	}
	for i, f := range figures {
		out = append(out, goldenOutput{fmt.Sprintf("figure%d.txt", i+1), f})
	}
	return out
}

// checkGolden renders every output from results and compares it with
// its reference file.
func checkGolden(t *testing.T, results []*report.SystemResult) {
	t.Helper()
	for _, o := range goldenOutputs() {
		want, err := os.ReadFile(filepath.Join("spexbench", "expected", o.file))
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.render(results)
		if err != nil {
			t.Fatalf("%s: %v", o.file, err)
		}
		if got+"\n" != string(want) {
			t.Errorf("%s differs from the reference:\n--- got\n%s\n--- want\n%s", o.file, got, want)
		}
	}
}

// TestGoldenTables renders the evaluation three ways — a live
// analysis that fills a state directory, the index replay over the
// Store that wrote it (its indexes written through on save), and the
// index replay over a freshly opened Store (its indexes read from the
// sidecars) — and requires each to match the reference.
func TestGoldenTables(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := campaignstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lock, err := store.Lock()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := lock.Unlock(); err != nil {
			t.Error(err)
		}
	}()
	live, err := report.AnalyzeAllContext(ctx, report.AnalyzeOptions{State: lock.Set()})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("live", func(t *testing.T) { checkGolden(t, live) })

	t.Run("index/written-through", func(t *testing.T) {
		rs, err := report.ReplayFromIndex(ctx, store)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, rs)
	})
	t.Run("index/sidecars", func(t *testing.T) {
		fresh, err := campaignstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := report.ReplayFromIndex(ctx, fresh)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, rs)
	})
}

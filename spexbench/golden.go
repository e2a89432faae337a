package main

import (
	"embed"
	"errors"
	"fmt"

	"spex/internal/report"
)

// expected holds the reference output, recorded with the repository's
// own CLI (`spexeval -table N`, `spexeval -figure N`) and reviewed
// against the paper columns the tables print. Concatenated in order
// (tables, then figures) the files are exactly `spexeval`'s default
// output. table09.txt holds tables 9 and 10, which render together.
//
//go:embed expected/*.txt
var expected embed.FS

// output is one rendered table or figure of the evaluation.
type output struct {
	file   string
	render func(results []*report.SystemResult) (string, error)
}

// tableNumbers are the table renders spexeval prints (10 comes with 9).
var tableNumbers = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12}

// outputs lists every table and figure in spexeval's order.
func outputs() []output {
	var out []output
	for _, n := range tableNumbers {
		n := n
		out = append(out, output{tableFile(n), func(rs []*report.SystemResult) (string, error) {
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
		out = append(out, output{fmt.Sprintf("figure%d.txt", i+1), f})
	}
	return out
}

func tableFile(n int) string {
	if n == 10 {
		n = 9
	}
	return fmt.Sprintf("table%02d.txt", n)
}

// readOutputs renders every table and figure from one pipeline
// iteration's results, timing each render as one read, and compares it
// with the reference. Each render counts as one operation.
func readOutputs(results []*report.SystemResult, ops *opCounter, reads *samples) bool {
	ok := true
	for _, o := range outputs() {
		var text string
		var err error
		reads.add(timed(func() { text, err = o.render(results) }))
		if err == nil {
			err = matchReference(o.file, text+"\n")
		}
		ok = ops.check(o.file, err) && ok
	}
	return ok
}

var errMismatch = errors.New("output differs from the reference")

// matchReference compares got with the reference file, which holds an
// output as spexeval prints it (the render plus a newline).
func matchReference(file, got string) error {
	want, err := expected.ReadFile("expected/" + file)
	if err != nil {
		return err
	}
	if got != string(want) {
		return errMismatch
	}
	return nil
}

package experiments

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// TestFprintAlignsMultiByteCells: T4's "§" header is two bytes but one
// column wide, so every row's second cell starts at the same display
// column as the "use case" header above it.
func TestFprintAlignsMultiByteCells(t *testing.T) {
	rep, err := T4UseCases(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(rep.String(), "\n")
	col := func(line, cell string) int {
		i := strings.Index(line, cell)
		if i < 0 {
			t.Fatalf("cell %q not in line %q", cell, line)
		}
		return utf8.RuneCountInString(line[:i])
	}
	var header string
	for _, l := range lines {
		if strings.HasPrefix(l, "§") {
			header = l
		}
	}
	want := col(header, "use case")
	if want != utf8.RuneCountInString(rep.Rows[0][0])+2 {
		t.Errorf("header %q: \"use case\" at column %d, want just past the widest § cell", header, want)
	}
	for _, row := range rep.Rows {
		for _, l := range lines {
			if strings.HasPrefix(l, row[0]+" ") {
				if got := col(l, row[1]); got != want {
					t.Errorf("row %s: second cell at column %d, header at %d", row[0], got, want)
				}
			}
		}
	}
}

// TestFprintASCIIBytes pins the rendering of an ASCII-only report, whose
// bytes padding by display width must leave as they were.
func TestFprintASCIIBytes(t *testing.T) {
	rep := &Report{
		ID: "X1", Title: "t", Headline: "h",
		Columns: []string{"a", "long name", "c"},
		Rows:    [][]string{{"wide cell", "1", ""}, {"x", "22", "3"}},
		Notes:   []string{"n"},
	}
	want := "== X1: t ==\n" +
		"claim: h\n" +
		"a          long name  c\n" +
		"---------  ---------  -\n" +
		"wide cell  1\n" +
		"x          22         3\n" +
		"note: n\n"
	if got := rep.String(); got != want {
		t.Errorf("rendered\n%s\nwant\n%s", got, want)
	}
}

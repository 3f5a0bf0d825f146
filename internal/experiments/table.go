// Package experiments regenerates every table and figure of the paper's
// evaluation section on synthetic stand-ins for the original datasets:
// seeded stochastic block models whose planted communities are the labels,
// at the originals' n and m or scaled down (Datasets). Each experiment is
// registered by id
// ("table1", "fig4", …) and returns plain-text tables.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: one header row plus data rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// f3 formats a float with three decimals, the paper's precision.
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }

// f1s formats seconds with one decimal.
func f1s(seconds float64) string { return fmt.Sprintf("%.2fs", seconds) }

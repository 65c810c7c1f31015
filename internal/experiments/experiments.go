// Package experiments regenerates the paper's evaluation artifacts.
// The demo paper has no numbered result tables; its artifacts are the
// dashboard metrics of Figure 2, the join-interface design space of
// Figure 3, the two demo queries, and the optimizations §2 and §4 name.
// Each Ex function reproduces one of them as a printable table;
// EXPERIMENTS.md records the expected shapes next to measured output.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/crowd"
)

// Table is one experiment's result, printable as the paper would report
// it.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string
}

// String renders an aligned text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Cell formats a value for a table cell.
func Cell(v interface{}) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.3f", x)
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// defaultCrowd is the baseline synthetic population used across
// experiments: competent but imperfect workers with realistic batching
// decay, occasional spam and abandonment.
func defaultCrowd(seed int64) crowd.Config {
	return crowd.Config{
		Workers:      150,
		Seed:         seed,
		MeanSkill:    0.92,
		SkillStd:     0.05,
		SpamFraction: 0.03,
		AbandonRate:  0.01,
		BatchPenalty: 0.012,
	}
}

// must unwraps a driver call (experiments are driver code;
// configuration and query errors are programming errors).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

const taskDefs = `
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Drag a picture of any Celebrity in the left column to their matching picture in the Spotted Star column to the right."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)

TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this photo of a cat? %s", photo
  Response: YesNo

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo

TASK isClear(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is the person in this photo clearly visible? %s", photo
  Response: YesNo

TASK squareScore(Image pic)
RETURNS Int:
  TaskType: Rating
  Text: "How visually appealing is %s, on a scale of 1 to 9?", pic
  Response: Rating(1, 9)

TASK better(Image a, Image b)
RETURNS Bool:
  TaskType: Filter
  Text: "Is the first image (%s) more appealing than the second (%s)?", a, b
  Response: YesNo
`

// query1 and query2 are the paper's demo queries, verbatim modulo
// quoting.
const (
	query1 = `SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies`
	query2 = `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`
)

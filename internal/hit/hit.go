// Package hit models Human Intelligence Tasks: the unit of work Qurk
// posts to the (simulated) MTurk marketplace. It mirrors the paper's HIT
// Compiler: a task (or a batch of tasks) is compiled into an HTML form a
// turker fills out, and the submitted form is decoded back into a typed
// answer sheet: one value per question, in the HIT's answer order.
package hit

import (
	"fmt"
	"strings"

	"repro/internal/qlang"
	"repro/internal/relation"
)

// Item is one batched sub-question inside a HIT. Key names the question
// in the form and on the wire; Args are the values rendered for the
// worker (e.g. the company name, or the two images of a join pair).
//
// Task and Prompt are set when several *different* operators share one
// HIT (the paper's operator-grouping optimization: "generate HITs from a
// set of operators, e.g. grouping multiple filter operations over the
// same tuple"); empty values inherit the HIT-level Task and Question.
type Item struct {
	Key    string
	Args   []relation.Value
	Task   string
	Prompt string
}

// EffectiveTask returns the item's task, defaulting to the HIT's.
func (h *HIT) EffectiveTask(it Item) string {
	if it.Task != "" {
		return it.Task
	}
	return h.Task
}

// HIT is a compiled human task, possibly batching several Items.
//
// For JoinColumns HITs the Left and Right columns are rendered instead of
// Items; the implied sub-questions are all Left×Right pairs, keyed by
// PairKey.
type HIT struct {
	ID          string
	Task        string // task (UDF) name
	Type        qlang.TaskType
	Title       string
	Question    string // rendered instruction text
	Response    qlang.Response
	Items       []Item
	Left, Right []Item // JoinColumns layout
	RewardCents int64
	Assignments int
	// GroupKeys lists the task keys of *grouped* operators sharing this
	// HIT (several predicates asked about one tuple); empty otherwise.
	GroupKeys []string
}

// PairKey builds the routing key for one cell of a JoinColumns grid.
func PairKey(leftKey, rightKey string) string {
	return leftKey + "\x1f" + rightKey
}

// SplitPairKey is the inverse of PairKey.
func SplitPairKey(key string) (left, right string, ok bool) {
	i := strings.IndexByte(key, '\x1f')
	if i < 0 {
		return "", "", false
	}
	return key[:i], key[i+1:], true
}

// Keys returns every routing key this HIT will answer, in answer order:
// item keys, or all pair keys (row-major) for a JoinColumns HIT.
func (h *HIT) Keys() []string {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		keys := make([]string, 0, len(h.Left)*len(h.Right))
		for _, l := range h.Left {
			for _, r := range h.Right {
				keys = append(keys, PairKey(l.Key, r.Key))
			}
		}
		return keys
	}
	keys := make([]string, len(h.Items))
	for i, it := range h.Items {
		keys[i] = it.Key
	}
	return keys
}

// QuestionCount returns how many logical questions the HIT answers —
// the batching leverage the Task Manager gets from one worker payment.
// It is called per completed assignment, so unlike Keys it allocates
// nothing.
func (h *HIT) QuestionCount() int {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		return len(h.Left) * len(h.Right)
	}
	return len(h.Items)
}

// Answers is one assignment's answer sheet: Values holds the typed
// value a worker produced for each question, by position in the HIT's
// answer order — Items in order, or for a JoinColumns HIT every
// Left×Right pair row-major (Left[0] with each Right item, then Left[1],
// ...), the order of Keys. For form/tuple tasks a value is a KindTuple;
// for filters and join pairs a KindBool; for ratings a KindInt; for
// order responses a KindInt rank (0 = first). Routing keys appear only
// where answers cross a wire or a form (ParseForm, EncodeAnswers, the
// HTTP backend), which convert between keys and positions.
type Answers struct {
	WorkerID string
	Values   []relation.Value
}

// RenderText substitutes a task's %s placeholders with the item's
// argument values, mirroring the paper's "simple substitution language".
func RenderText(template string, textArgs []string, params []qlang.Param, args []relation.Value) string {
	if !strings.Contains(template, "%s") {
		return template
	}
	subs := make([]interface{}, 0, len(textArgs))
	for _, name := range textArgs {
		i := paramIndex(params, name)
		if i < 0 || i >= len(args) {
			subs = append(subs, "?")
			continue
		}
		subs = append(subs, displayValue(args[i]))
	}
	return fmt.Sprintf(strings.ReplaceAll(template, "%s", "%v"), subs...)
}

// paramIndex returns the position of the parameter named name (case
// insensitively; the last one wins), or -1.
func paramIndex(params []qlang.Param, name string) int {
	for i := len(params) - 1; i >= 0; i-- {
		if strings.EqualFold(params[i].Name, name) {
			return i
		}
	}
	return -1
}

func displayValue(v relation.Value) string {
	switch v.Kind() {
	case relation.KindImage:
		return v.Str()
	case relation.KindList:
		parts := make([]string, v.Len())
		for i, e := range v.List() {
			parts[i] = displayValue(e)
		}
		return strings.Join(parts, ", ")
	default:
		return v.String()
	}
}

// Validate checks structural invariants before posting.
func (h *HIT) Validate() error {
	if h.ID == "" {
		return fmt.Errorf("hit: missing ID")
	}
	if h.Task == "" {
		return fmt.Errorf("hit %s: missing task name", h.ID)
	}
	if h.Assignments < 1 {
		return fmt.Errorf("hit %s: assignments %d < 1", h.ID, h.Assignments)
	}
	if h.RewardCents < 0 {
		return fmt.Errorf("hit %s: negative reward", h.ID)
	}
	if h.Response.Kind == qlang.ResponseJoinColumns {
		if len(h.Left) == 0 || len(h.Right) == 0 {
			return fmt.Errorf("hit %s: JoinColumns needs both columns populated", h.ID)
		}
		if len(h.Items) != 0 {
			return fmt.Errorf("hit %s: JoinColumns must not also carry Items", h.ID)
		}
		return nil
	}
	if len(h.Items) == 0 {
		return fmt.Errorf("hit %s: no items", h.ID)
	}
	seen := make(map[string]bool, len(h.Items))
	for _, it := range h.Items {
		if it.Key == "" {
			return fmt.Errorf("hit %s: item with empty key", h.ID)
		}
		if seen[it.Key] {
			return fmt.Errorf("hit %s: duplicate item key %q", h.ID, it.Key)
		}
		seen[it.Key] = true
	}
	return nil
}

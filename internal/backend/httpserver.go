package backend

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Wire types: the MTurk-shaped REST surface both sides of the HTTP
// driver speak. Values travel as base64 of the relation binary codec so
// every Kind round-trips exactly.

type wireItem struct {
	Key    string   `json:"key"`
	Task   string   `json:"task,omitempty"`
	Prompt string   `json:"prompt,omitempty"`
	Args   []string `json:"args,omitempty"`
}

type wireHIT struct {
	ID          string         `json:"id"`
	Task        string         `json:"task"`
	Type        int            `json:"type"`
	Title       string         `json:"title,omitempty"`
	Question    string         `json:"question,omitempty"`
	Response    qlang.Response `json:"response"`
	Items       []wireItem     `json:"items,omitempty"`
	Left        []wireItem     `json:"left,omitempty"`
	Right       []wireItem     `json:"right,omitempty"`
	RewardCents int64          `json:"rewardCents"`
	Assignments int            `json:"assignments"`
	GroupKeys   []string       `json:"groupKeys,omitempty"`
}

type wireAssignment struct {
	ID          string            `json:"id"`
	WorkerID    string            `json:"workerId"`
	Values      map[string]string `json:"values"`
	SubmittedAt int64             `json:"submittedAt"`
	External    bool              `json:"external"`
}

type wireFailure struct {
	Error string `json:"error"`
}

type wirePage struct {
	Assignments []wireAssignment `json:"assignments"`
	Failures    []wireFailure    `json:"failures,omitempty"`
	Next        int              `json:"next"`
	Done        bool             `json:"done"`
}

type wireExtend struct {
	Extra int `json:"extra"`
}

type wireStatus struct {
	ID         string `json:"id"`
	Completed  int    `json:"completed"`
	SpentCents int64  `json:"spentCents"`
	Open       bool   `json:"open"`
}

func encodeValue(v relation.Value) string {
	return base64.StdEncoding.EncodeToString(v.Encode(nil))
}

func decodeWireValue(s string) (relation.Value, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return relation.Value{}, err
	}
	v, rest, err := relation.DecodeValue(raw)
	if err != nil || len(rest) != 0 {
		return relation.Value{}, fmt.Errorf("backend: bad value encoding: %v", err)
	}
	return v, nil
}

// wireValues encodes an answer sheet as the wire's key-addressed
// values: position i travels under h's i-th answer key.
func wireValues(h *hit.HIT, vals []relation.Value) map[string]string {
	keys := h.Keys()
	out := make(map[string]string, len(vals))
	for i, v := range vals {
		if i < len(keys) {
			out[keys[i]] = encodeValue(v)
		}
	}
	return out
}

// sheetFromWire decodes the wire's key-addressed values into an answer
// sheet in h's answer order. A sheet that misses one of h's answer
// keys, names a key h does not have, or carries an undecodable value is
// rejected whole.
func sheetFromWire(h *hit.HIT, wire map[string]string) ([]relation.Value, error) {
	keys := h.Keys()
	vals := make([]relation.Value, len(keys))
	for i, k := range keys {
		enc, ok := wire[k]
		if !ok {
			return nil, fmt.Errorf("no answer for key %q", k)
		}
		v, err := decodeWireValue(enc)
		if err != nil {
			return nil, fmt.Errorf("key %q: %v", k, err)
		}
		vals[i] = v
	}
	if len(wire) != len(keys) {
		known := make(map[string]bool, len(keys))
		for _, k := range keys {
			known[k] = true
		}
		var unknown []string
		for k := range wire {
			if !known[k] {
				unknown = append(unknown, k)
			}
		}
		slices.Sort(unknown)
		return nil, fmt.Errorf("unknown answer keys %q", unknown)
	}
	return vals, nil
}

func encodeArgs(args []relation.Value) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = encodeValue(a)
	}
	return out
}

func decodeWireItem(w wireItem) (hit.Item, error) {
	it := hit.Item{Key: w.Key, Task: w.Task, Prompt: w.Prompt}
	for _, s := range w.Args {
		v, err := decodeWireValue(s)
		if err != nil {
			return it, err
		}
		it.Args = append(it.Args, v)
	}
	return it, nil
}

// serverHIT is one posted HIT's server-side collection log: every
// assignment (and terminal failure) in arrival order, so clients page
// through with a cursor and dedupe by assignment ID.
type serverHIT struct {
	assignments []wireAssignment
	failures    []wireFailure
	expected    int
	settled     int // assignments + failures
}

// Server is an in-repo MTurk-shaped HTTP service: the sandbox the HTTP
// driver is developed and tested against. It wraps a real simulated
// marketplace (with its own clock and worker pool) and drains the clock
// after every mutation, so posted work completes before the response —
// the client's polling, retry, and idempotency machinery sees fully
// realistic payloads without wall-clock waits.
//
// Fault injection: FailNext serves 500s, TearNext truncates response
// bodies mid-write (after the marketplace has processed the request —
// the dangerous kind), DuplicateNext repeats assignment page entries.
type Server struct {
	market *mturk.Marketplace
	clock  *mturk.Clock

	mu     sync.Mutex
	hits   map[string]*serverHIT
	idem   map[string][]byte // Idempotency-Key → response body already sent
	fail   int
	tear   int
	dup    int
	reqs   int64
	posted int64
}

// NewServer wraps a marketplace and its clock as an HTTP service. The
// server installs itself as the marketplace's error handler; callers
// must not overwrite it.
func NewServer(market *mturk.Marketplace, clock *mturk.Clock) *Server {
	s := &Server{
		market: market,
		clock:  clock,
		hits:   make(map[string]*serverHIT),
		idem:   make(map[string][]byte),
	}
	market.SetErrorHandler(func(hitID string, err error) {
		s.mu.Lock()
		if sh, ok := s.hits[hitID]; ok {
			sh.failures = append(sh.failures, wireFailure{Error: err.Error()})
			sh.settled++
		}
		s.mu.Unlock()
	})
	return s
}

// FailNext makes the next n requests fail with 500 before processing.
func (s *Server) FailNext(n int) {
	s.mu.Lock()
	s.fail = n
	s.mu.Unlock()
}

// TearNext makes the next n responses truncate mid-body after the
// request has been fully processed.
func (s *Server) TearNext(n int) {
	s.mu.Lock()
	s.tear = n
	s.mu.Unlock()
}

// DuplicateNext makes the next n assignment pages deliver every entry
// twice, exercising client-side dedupe.
func (s *Server) DuplicateNext(n int) {
	s.mu.Lock()
	s.dup = n
	s.mu.Unlock()
}

// Requests returns how many requests the server has seen (including
// injected failures), for backoff-schedule assertions.
func (s *Server) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reqs
}

// Posted returns how many HITs reached the marketplace — the
// no-double-spend assertions pin this.
func (s *Server) Posted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posted
}

// drain steps the server's clock until no scheduled work remains, so
// every completion lands before the next response is served.
func (s *Server) drain() {
	for s.clock.Step() {
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reqs++
	if s.fail > 0 {
		s.fail--
		s.mu.Unlock()
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	s.mu.Unlock()

	var body []byte
	status := http.StatusOK
	var err error
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/hits":
		body, status, err = s.handlePost(r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/assignments"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/assignments")
		body, status, err = s.handleAssignments(id, r.URL.Query().Get("since"))
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/external"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/external")
		body, status, err = s.handleExternal(id, r)
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/extend"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/extend")
		body, status, err = s.handleExtend(id, r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/hits/"):
		body, status, err = s.handleStatus(strings.TrimPrefix(r.URL.Path, "/hits/"))
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/hits/"):
		body, status, err = s.handleDispose(strings.TrimPrefix(r.URL.Path, "/hits/"))
	default:
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	s.mu.Lock()
	torn := s.tear > 0
	if torn {
		s.tear--
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if torn && len(body) > 1 {
		_, _ = w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, herr := hj.Hijack(); herr == nil {
				_ = conn.Close() // cut the connection mid-body
			}
		}
		return
	}
	_, _ = w.Write(body)
}

func (s *Server) handlePost(r *http.Request) ([]byte, int, error) {
	key := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if key != "" {
		if prev, ok := s.idem[key]; ok {
			s.mu.Unlock()
			return prev, http.StatusOK, nil
		}
	}
	s.mu.Unlock()

	var wh wireHIT
	if err := json.NewDecoder(r.Body).Decode(&wh); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad HIT body: %v", err)
	}
	h := &hit.HIT{
		ID:          wh.ID,
		Task:        wh.Task,
		Type:        qlang.TaskType(wh.Type),
		Title:       wh.Title,
		Question:    wh.Question,
		Response:    wh.Response,
		RewardCents: wh.RewardCents,
		Assignments: wh.Assignments,
		GroupKeys:   wh.GroupKeys,
	}
	for _, wi := range wh.Items {
		it, err := decodeWireItem(wi)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		h.Items = append(h.Items, it)
	}
	for _, wi := range wh.Left {
		it, err := decodeWireItem(wi)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		h.Left = append(h.Left, it)
	}
	for _, wi := range wh.Right {
		it, err := decodeWireItem(wi)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		h.Right = append(h.Right, it)
	}

	s.mu.Lock()
	s.hits[h.ID] = &serverHIT{expected: h.Assignments}
	s.mu.Unlock()
	if err := s.market.Post(h, func(res mturk.AssignmentResult) {
		s.mu.Lock()
		defer s.mu.Unlock()
		sh, ok := s.hits[res.HITID]
		if !ok {
			return
		}
		wa := wireAssignment{
			ID:          fmt.Sprintf("%s-a%03d", res.HITID, len(sh.assignments)+1),
			WorkerID:    res.Answers.WorkerID,
			Values:      wireValues(h, res.Answers.Values),
			SubmittedAt: int64(res.SubmittedAt),
			External:    res.External,
		}
		sh.assignments = append(sh.assignments, wa)
		if !res.External {
			sh.settled++
		}
	}); err != nil {
		s.mu.Lock()
		delete(s.hits, h.ID)
		s.mu.Unlock()
		return nil, http.StatusConflict, err
	}
	s.mu.Lock()
	s.posted++
	s.mu.Unlock()
	s.drain()

	body, _ := json.Marshal(map[string]string{"id": h.ID})
	if key != "" {
		s.mu.Lock()
		s.idem[key] = body
		s.mu.Unlock()
	}
	return body, http.StatusCreated, nil
}

func (s *Server) handleAssignments(id, sinceStr string) ([]byte, int, error) {
	since, _ := strconv.Atoi(sinceStr)
	s.mu.Lock()
	sh, ok := s.hits[id]
	if !ok {
		s.mu.Unlock()
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	page := wirePage{Next: len(sh.assignments), Done: sh.settled >= sh.expected}
	if since < len(sh.assignments) {
		page.Assignments = append(page.Assignments, sh.assignments[since:]...)
	}
	page.Failures = append(page.Failures, sh.failures...)
	dup := s.dup > 0
	if dup && len(page.Assignments) > 0 {
		s.dup--
		page.Assignments = append(page.Assignments, page.Assignments...)
	}
	s.mu.Unlock()
	body, _ := json.Marshal(page)
	return body, http.StatusOK, nil
}

func (s *Server) handleExternal(id string, r *http.Request) ([]byte, int, error) {
	var wa wireAssignment
	if err := json.NewDecoder(r.Body).Decode(&wa); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad assignment body: %v", err)
	}
	st, ok := s.market.Status(id)
	if !ok {
		return nil, http.StatusConflict, fmt.Errorf("mturk: unknown HIT %s", id)
	}
	vals, err := sheetFromWire(st.HIT, wa.Values)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("undecodable assignment: %v", err)
	}
	if err := s.market.SubmitExternal(id, hit.Answers{WorkerID: wa.WorkerID, Values: vals}); err != nil {
		return nil, http.StatusConflict, err
	}
	s.drain()
	body, _ := json.Marshal(map[string]bool{"ok": true})
	return body, http.StatusOK, nil
}

func (s *Server) handleExtend(id string, r *http.Request) ([]byte, int, error) {
	key := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if key != "" {
		if prev, ok := s.idem[key]; ok {
			s.mu.Unlock()
			return prev, http.StatusOK, nil
		}
	}
	s.mu.Unlock()

	var we wireExtend
	if err := json.NewDecoder(r.Body).Decode(&we); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad extend body: %v", err)
	}
	if we.Extra <= 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("extend by %d", we.Extra)
	}
	if err := s.market.ExtendAssignments(id, we.Extra); err != nil {
		return nil, http.StatusConflict, err
	}
	s.mu.Lock()
	if sh, ok := s.hits[id]; ok {
		sh.expected += we.Extra
	}
	s.mu.Unlock()
	s.drain()

	body, _ := json.Marshal(map[string]bool{"ok": true})
	if key != "" {
		s.mu.Lock()
		s.idem[key] = body
		s.mu.Unlock()
	}
	return body, http.StatusOK, nil
}

func (s *Server) handleStatus(id string) ([]byte, int, error) {
	st, ok := s.market.Status(id)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	body, _ := json.Marshal(wireStatus{
		ID: id, Completed: st.Completed, SpentCents: int64(st.Spent), Open: st.Open(),
	})
	return body, http.StatusOK, nil
}

func (s *Server) handleDispose(id string) ([]byte, int, error) {
	st, ok := s.market.Dispose(id)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	body, _ := json.Marshal(wireStatus{
		ID: id, Completed: st.Completed, SpentCents: int64(st.Spent), Open: false,
	})
	return body, http.StatusOK, nil
}

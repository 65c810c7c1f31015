package backend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/relation"
)

// twoItemHIT is a yes/no HIT over items k1 and k2.
func twoItemHIT(id string, assignments int) *hit.HIT {
	h := filterHIT(id, "isCat", assignments)
	h.Items = append(h.Items, hit.Item{Key: "k2", Args: []relation.Value{relation.NewImage("y.png")}})
	return h
}

// Wire values round-trip through the positional sheet in answer order,
// join grids row-major, and a sheet missing a key or naming an unknown
// one is rejected whole.
func TestWireSheetConversion(t *testing.T) {
	grid := joinHIT("G")
	grid.Right = append(grid.Right, hit.Item{Key: "r2", Args: []relation.Value{relation.NewString("b")}})
	sheet := []relation.Value{relation.NewBool(true), relation.NewBool(false), relation.NewBool(false), relation.NewBool(true)}
	wire := wireValues(grid, sheet)
	if len(wire) != 4 || wire[hit.PairKey("l1", "r2")] != encodeValue(relation.NewBool(false)) ||
		wire[hit.PairKey("l2", "r2")] != encodeValue(relation.NewBool(true)) {
		t.Fatalf("wire values are not row-major: %v", wire)
	}
	got, err := sheetFromWire(grid, wire)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sheet {
		if !got[i].Equal(sheet[i]) {
			t.Errorf("position %d = %v, want %v", i, got[i], sheet[i])
		}
	}
	missing := wireValues(grid, sheet)
	delete(missing, hit.PairKey("l2", "r1"))
	if _, err := sheetFromWire(grid, missing); err == nil || !strings.Contains(err.Error(), "no answer") {
		t.Errorf("missing key: err = %v", err)
	}
	unknown := wireValues(grid, sheet)
	unknown["bogus"] = encodeValue(relation.NewBool(true))
	if _, err := sheetFromWire(grid, unknown); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown key: err = %v", err)
	}
}

// The HTTP driver treats a polled assignment whose sheet misses an item
// key, or names one the HIT does not have, as undecodable: it is
// reported as a failed assignment instead of casting no vote.
func TestHTTPClientRejectsMalformedSheets(t *testing.T) {
	serverClock := mturk.NewClock()
	srv := NewServer(mturk.NewMarketplace(serverClock, perfectPool{}), serverClock)
	// Tamper with the served pages: the first assignment loses key k2,
	// the second gains an unknown key, the third is left intact.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/assignments") {
			var page wirePage
			if err := json.Unmarshal(body, &page); err == nil {
				for i := range page.Assignments {
					wa := &page.Assignments[i]
					vals := make(map[string]string, len(wa.Values)+1)
					for k, v := range wa.Values {
						vals[k] = v
					}
					switch {
					case strings.HasSuffix(wa.ID, "-a001"):
						delete(vals, "k2")
					case strings.HasSuffix(wa.ID, "-a002"):
						vals["k3"] = vals["k1"]
					}
					wa.Values = vals
				}
				body, _ = json.Marshal(page)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	client, err := NewHTTP(HTTPConfig{BaseURL: ts.URL, Clock: mturk.NewClock(),
		PollInterval: time.Millisecond, Backoff: time.Millisecond, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	var mu sync.Mutex
	var failures []string
	client.SetErrorHandler(func(_ string, err error) {
		mu.Lock()
		failures = append(failures, err.Error())
		mu.Unlock()
	})
	var got collect
	h := twoItemHIT(client.NewHITID(), 3)
	if err := client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "assignments", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got.len()+len(failures) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	got.mu.Lock()
	defer got.mu.Unlock()
	if len(got.results) != 1 || len(got.results[0].Answers.Values) != 2 {
		t.Fatalf("delivered %d assignments (%+v), want only the intact one", len(got.results), got.results)
	}
	if len(failures) != 2 || !strings.Contains(failures[0]+failures[1], `no answer for key "k2"`) ||
		!strings.Contains(failures[0]+failures[1], `unknown answer keys ["k3"]`) {
		t.Fatalf("failures = %q", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "undecodable assignment") {
			t.Errorf("failure %q not reported as undecodable", f)
		}
	}
}

// The server's external-submission endpoint rejects a sheet with a
// missing or unknown item key as undecodable (400), without filling
// the HIT's open slot; a complete sheet is accepted in answer order.
func TestHTTPServerRejectsMalformedExternalSheets(t *testing.T) {
	clock := mturk.NewClock()
	market := mturk.NewMarketplace(clock, &failingPool{})
	srv := NewServer(market, clock)
	h := twoItemHIT(market.NewHITID(), 1)
	var got collect
	if err := market.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	yes, no := encodeValue(relation.NewBool(true)), encodeValue(relation.NewBool(false))
	submit := func(values map[string]string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(wireAssignment{WorkerID: "human-1", Values: values})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/hits/"+h.ID+"/external", bytes.NewReader(body)))
		return rec
	}
	for name, values := range map[string]map[string]string{
		"missing key": {"k1": yes},
		"unknown key": {"k1": yes, "k2": no, "k3": yes},
		"bad value":   {"k1": yes, "k2": "%%%"},
	} {
		rec := submit(values)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "undecodable") {
			t.Errorf("%s: status %d body %q, want 400 undecodable", name, rec.Code, rec.Body.String())
		}
	}
	if got.len() != 0 {
		t.Fatalf("a rejected sheet filled a slot: %+v", got.results)
	}
	if rec := submit(map[string]string{"k1": no, "k2": yes}); rec.Code != http.StatusOK {
		t.Fatalf("complete sheet: status %d body %q", rec.Code, rec.Body.String())
	}
	if got.len() != 1 {
		t.Fatalf("results = %+v", got.results)
	}
	vals := got.results[0].Answers.Values
	if len(vals) != 2 || vals[0].Truthy() || !vals[1].Truthy() {
		t.Errorf("sheet = %v, want [false true] in answer order", vals)
	}
}

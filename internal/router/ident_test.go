package router

// The interned request identity against the derivation it memoizes: for
// every registry experiment (and the ad-hoc IDs the router tests use) in
// every spelling a client could send, the identity's key, resolved params
// and owner must be what ParseParams -> ResolveParams -> CacheKey / the
// ad-hoc routing key give when derived from scratch, and every entry must
// answer the same status and message through POST /v1/batch on an engine
// and through a front-end.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// resolveRef is the engine's resolution written out from scratch: the
// reference the identity is held to.
func resolveRef(id string, p core.Params) (string, core.Params, error) {
	if len(p) == 0 {
		return id, nil, nil
	}
	exp, ok := core.ByID(id)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", serve.ErrUnknownExperiment, id)
	}
	resolved, err := exp.ResolveParams(p)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", serve.ErrBadParams, err)
	}
	return exp.CacheKey(resolved), resolved, nil
}

// routeKeyRef is the placement key derived from the registry directly,
// the reference an identity's Key must equal.
func routeKeyRef(id string, p core.Params) string {
	if key, _, err := resolveRef(id, p); err == nil {
		return key
	}
	return id + "?" + strings.Join(p.Assignments(), "&")
}

// offDefault picks a valid value of the knob other than its default.
func offDefault(s core.ParamSpec) (float64, bool) {
	for _, v := range []float64{s.Min, s.Max, s.Min + s.Step, s.Default + 1} {
		if v != s.Default && s.Check(v) == nil {
			return v, true
		}
	}
	return 0, false
}

// respell writes a canonical decimal another way: "0.9" -> "0.90",
// "64" -> "64.0".
func respell(v string) string {
	switch {
	case strings.ContainsAny(v, "eE"):
		return v
	case strings.Contains(v, "."):
		return v + "0"
	}
	return v + ".0"
}

// spellings lists assignments for one experiment: the ways a client can
// write a valid request, and the ways it can get one wrong.
func spellings(exp core.Experiment) [][]string {
	out := [][]string{nil, {"nosuch=1"}, {"novalue"}, {"=1"}}
	var defaults, moved, exponent, padded []string
	for _, s := range exp.Params {
		v, ok := offDefault(s)
		if !ok {
			continue
		}
		canon := core.FormatParamValue(v)
		defaults = append(defaults, s.Name+"="+core.FormatParamValue(s.Default))
		moved = append(moved, s.Name+"="+canon)
		exponent = append(exponent, s.Name+"="+strconv.FormatFloat(v, 'e', -1, 64))
		padded = append(padded, "  "+s.Name+" =  "+respell(canon)+" ")
		out = append(out,
			[]string{s.Name + "=" + canon, s.Name + "=" + canon}, // assigned twice
			[]string{s.Name + "=" + core.FormatParamValue(s.Max+1)},
			[]string{s.Name + "=NaN"}, []string{s.Name + "=+Inf"}, []string{s.Name + "=abc"})
	}
	if len(moved) > 0 {
		reversed := slices.Clone(moved)
		slices.Reverse(reversed)
		out = append(out, defaults, moved, reversed, exponent, padded,
			append(slices.Clone(defaults[:1]), moved[1:]...))
	}
	return out
}

func postFrame(t *testing.T, url string, frame []byte, n int) []httpapi.BatchResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch: HTTP %d, read err %v", resp.StatusCode, err)
	}
	results, err := httpapi.DecodeBatchResponse(body)
	if err != nil || len(results) != n {
		t.Fatalf("response frame: %d results for %d entries, err %v", len(results), n, err)
	}
	return results
}

func TestRequestIdentityMatchesUncachedDerivation(t *testing.T) {
	fake := func(_ context.Context, id string, _ core.Params) (core.Result, error) {
		return core.Result{Findings: []string{"ran " + id}}, nil
	}
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2, RunnerWith: fake})
	defer eng.Close()
	replica := httptest.NewServer(eng.Handler())
	defer replica.Close()
	hop := NewHTTPBackend(replica.URL)
	front, err := New([]Backend{hop}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	frontSrv := httptest.NewServer(front.Handler())
	defer frontSrv.Close()
	// Owners are compared on a ring with somewhere to go.
	ring, engines := newRegistryCluster(t, 3, "", Config{})
	for _, e := range engines {
		defer e.Close()
	}

	var entries []httpapi.BatchEntry
	for _, exp := range core.Registry() {
		for _, as := range spellings(exp) {
			entries = append(entries, httpapi.BatchEntry{ID: exp.ID, Class: admit.Batch, Params: as})
		}
	}
	for _, id := range []string{"X1", "ZZ"} { // unregistered: servable bare, never with params
		for _, as := range [][]string{nil, {"a=1", "b=2"}, {"b=2", "a=1"}, {"a"}} {
			entries = append(entries, httpapi.BatchEntry{ID: id, Class: admit.Interactive, Params: as})
		}
	}

	frame := httpapi.AppendBatchRequest(nil, entries)
	direct := postFrame(t, replica.URL, frame, len(entries))
	routed := postFrame(t, frontSrv.URL, frame, len(entries))
	w, err := httpapi.WalkBatchRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i, en := range entries {
		name := fmt.Sprintf("%s %q", en.ID, en.Params)
		if !w.Next() {
			t.Fatalf("walker stopped at entry %d: %v", i, w.Err)
		}
		ident, ierr := serve.Intern(w.ID, w.Run)
		p, perr := core.ParseParams(en.Params)
		if perr != nil {
			if ierr == nil || ierr.Error() != perr.Error() {
				t.Errorf("%s: Intern err %v, want %v", name, ierr, perr)
			}
			for face, r := range map[string]httpapi.BatchResult{"engine": direct[i], "front-end": routed[i]} {
				if r.OK || r.Status != http.StatusBadRequest || r.Msg != perr.Error() {
					t.Errorf("%s via %s: %+v, want 400 %q", name, face, r, perr)
				}
			}
			continue
		}
		if ierr != nil {
			t.Errorf("%s: Intern: %v", name, ierr)
			continue
		}
		key, resolved, rerr := resolveRef(en.ID, p)
		for how, id := range map[string]*serve.Identity{"Intern": ident, "IdentOf": serve.IdentOf(en.ID, p)} {
			if id.ID() != en.ID || id.Key() != routeKeyRef(en.ID, p) ||
				ring.ring.Place(id.Hash()) != ring.ring.Place(cluster.HashString(routeKeyRef(en.ID, p))) {
				t.Errorf("%s: %s names it (%q, %q), want key %q", name, how, id.ID(), id.Key(), routeKeyRef(en.ID, p))
			}
			// An unresolved pair's error is the served answer, checked below.
			if rerr == nil && !maps.Equal(id.Params(), resolved) {
				t.Errorf("%s: %s resolved %v, want %v", name, how, id.Params(), resolved)
			}
		}
		if rerr != nil {
			status, _, _ := httpapi.ErrorStatus(rerr, http.StatusInternalServerError)
			if r := direct[i]; r.OK || r.Status != status || r.Msg != rerr.Error() {
				t.Errorf("%s via engine: %+v, want %d %q", name, r, status, rerr)
			}
			msg := fmt.Sprintf("router: %s /batch entry %s: HTTP %d: %s", hop.Name(), en.ID, status, rerr)
			if r := routed[i]; r.OK || r.Status != status || r.Msg != msg {
				t.Errorf("%s via front-end: %+v, want %d %q", name, r, status, msg)
			}
			continue
		}
		for face, r := range map[string]httpapi.BatchResult{"engine": direct[i], "front-end": routed[i]} {
			if !r.OK || r.Key != key {
				t.Errorf("%s via %s: %+v, want key %q", name, face, r, key)
			}
		}
	}
}

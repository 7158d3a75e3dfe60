package httpapi

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
)

func TestBatchRequestRoundTrip(t *testing.T) {
	entries := []BatchEntry{
		{ID: "E7", Class: admit.Interactive, Params: []string{"f=0.95", "bces=64"}},
		{ID: "E1", Class: admit.Batch, Params: nil},
		{ID: "", Class: admit.Batch, Params: []string{""}},
	}
	frame := AppendBatchRequest(nil, entries)
	got, err := DecodeBatchRequest(frame)
	if err != nil {
		t.Fatalf("DecodeBatchRequest: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.ID != e.ID || g.Class != e.Class || len(g.Params) != len(e.Params) {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, e)
		}
		for j := range e.Params {
			if g.Params[j] != e.Params[j] {
				t.Fatalf("entry %d param %d: got %q, want %q", i, j, g.Params[j], e.Params[j])
			}
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	results := []BatchResult{
		{OK: true, CacheHit: true, Key: "E7?bces=64&f=0.95", Payload: []byte{1, 2, 3}},
		{OK: true, Shared: true, Key: "E1", Payload: nil},
		{Status: 404, Msg: "unknown experiment"},
		{Status: 503, Msg: ""},
		{Status: 503, Msg: "queue full", RetryAfter: 1500 * time.Millisecond},
		{Status: 429, Msg: "deadline", RetryAfter: time.Millisecond},
	}
	frame := AppendBatchResponse(nil, results)
	got, err := DecodeBatchResponse(frame)
	if err != nil {
		t.Fatalf("DecodeBatchResponse: %v", err)
	}
	if len(got) != len(results) {
		t.Fatalf("got %d results, want %d", len(got), len(results))
	}
	for i, r := range results {
		g := got[i]
		if g.OK != r.OK || g.CacheHit != r.CacheHit || g.Shared != r.Shared ||
			g.Key != r.Key || g.Status != r.Status || g.Msg != r.Msg || g.RetryAfter != r.RetryAfter ||
			!bytes.Equal(g.Payload, r.Payload) {
			t.Fatalf("result %d: got %+v, want %+v", i, g, r)
		}
	}
	// A frame without a shed is byte for byte what it was before the hint
	// existed; the bit and the uvarint appear only on a hinted entry.
	_, absent, _, _ := retryHintFrames()
	if want := "A21R\x01\x01\x00\xf7\x03\x0aqueue full"; string(absent) != want {
		t.Fatalf("plain shed frame = %q, want %q", absent, want)
	}
	// A sub-millisecond hint rounds up to the one millisecond the frame can say.
	got, err = DecodeBatchResponse(AppendBatchResponse(nil, []BatchResult{{Status: 503, RetryAfter: time.Microsecond}}))
	if err != nil || got[0].RetryAfter != time.Millisecond {
		t.Fatalf("sub-millisecond hint decoded as (%+v, %v), want 1ms", got, err)
	}
}

// retryHintFrames are response frames around the retry hint: present,
// absent, and the two spellings the decoder must reject — a hint on an OK
// entry and a hint whose uvarint overflows.
func retryHintFrames() (present, absent, onOK, overflow []byte) {
	present = AppendBatchResponse(nil, []BatchResult{{Status: 503, Msg: "queue full", RetryAfter: 2 * time.Second}})
	absent = AppendBatchResponse(nil, []BatchResult{{Status: 503, Msg: "queue full"}})
	onOK = AppendBatchResponse(nil, []BatchResult{{OK: true, Key: "k"}})
	onOK[len(BatchResponseMagic)+2] |= batchRetry
	onOK = appendUvarint(onOK, 7)
	overflow = append(present[:len(present)-2:len(present)-2], bytes.Repeat([]byte{0xFF}, 10)...)
	return
}

func TestBatchResponseRetryHint(t *testing.T) {
	present, absent, onOK, overflow := retryHintFrames()
	if want := "A21R\x01\x01\x08\xf7\x03\x0aqueue full\xd0\x0f"; string(present) != want {
		t.Fatalf("hinted shed frame = %q, want %q", present, want)
	}
	if got, err := DecodeBatchResponse(present); err != nil || got[0].RetryAfter != 2*time.Second {
		t.Fatalf("hinted entry = (%+v, %v), want a 2s hint", got, err)
	}
	if got, err := DecodeBatchResponse(absent); err != nil || got[0].RetryAfter != 0 {
		t.Fatalf("plain shed entry = (%+v, %v), want no hint", got, err)
	}
	if _, err := DecodeBatchResponse(onOK); err == nil {
		t.Fatal("a retry hint on an OK entry was accepted")
	}
	if _, err := DecodeBatchResponse(overflow); err == nil {
		t.Fatal("an overflowing retry hint was accepted")
	}
}

func TestBatchRequestRejectsTrailingBytes(t *testing.T) {
	frame := AppendBatchRequest(nil, []BatchEntry{{ID: "E7"}})
	if _, err := DecodeBatchRequest(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	frame = AppendBatchResponse(nil, []BatchResult{{OK: true, Key: "k"}})
	if _, err := DecodeBatchResponse(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBatchRequestRejectsBadFrames(t *testing.T) {
	good := AppendBatchRequest(nil, []BatchEntry{{ID: "E7", Params: []string{"f=0.9"}}})
	cases := map[string][]byte{
		"empty":         nil,
		"short":         []byte("A2"),
		"wrong magic":   []byte("A21Rxxxx"),
		"bad version":   append([]byte(BatchRequestMagic), 99),
		"truncated":     good[:len(good)-2],
		"hostile count": append(append([]byte(BatchRequestMagic), BatchVersion), 0xFF, 0xFF, 0xFF, 0x7F),
	}
	for name, frame := range cases {
		if _, err := DecodeBatchRequest(frame); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A class byte outside the admit vocabulary must be rejected, not
	// silently folded into a class.
	bad := append([]byte(BatchRequestMagic), BatchVersion)
	bad = appendUvarint(bad, 1)
	bad = appendUvarint(bad, 2)
	bad = append(bad, "E7"...)
	bad = append(bad, 7) // class byte
	bad = appendUvarint(bad, 0)
	if _, err := DecodeBatchRequest(bad); err == nil || !strings.Contains(err.Error(), "class") {
		t.Errorf("bad class byte: err = %v, want class rejection", err)
	}
}

func TestBatchResponseRejectsBadStatus(t *testing.T) {
	frame := append([]byte(BatchResponseMagic), BatchVersion)
	frame = appendUvarint(frame, 1)
	frame = append(frame, 0)          // word: !OK
	frame = appendUvarint(frame, 200) // not an error status
	frame = appendUvarint(frame, 0)
	if _, err := DecodeBatchResponse(frame); err == nil {
		t.Fatal("status 200 on an error entry accepted")
	}
}

// decodeBatchRequestRef is the request decoder as it stood before
// DecodeBatchRequest was rebuilt on BatchWalker, kept as the independent
// reference FuzzBatchFrame holds both to.
func decodeBatchRequestRef(buf []byte) ([]BatchEntry, error) {
	fr := &frameReader{buf: buf}
	count, err := fr.header(BatchRequestMagic)
	if err != nil {
		return nil, err
	}
	var entries []BatchEntry
	for i := 0; i < count; i++ {
		id, err := fr.chunk()
		if err != nil {
			return nil, err
		}
		cb, err := fr.byte()
		if err != nil {
			return nil, err
		}
		if int(cb) >= len(admit.Classes()) {
			return nil, ErrBatchFrame
		}
		np, err := fr.uvarint()
		if err != nil {
			return nil, err
		}
		if np > uint64(len(fr.buf)-fr.off) {
			return nil, ErrBatchFrame
		}
		var params []string
		for j := uint64(0); j < np; j++ {
			p, err := fr.chunk()
			if err != nil {
				return nil, err
			}
			params = append(params, string(p))
		}
		entries = append(entries, BatchEntry{ID: string(id), Class: admit.Class(cb), Params: params})
	}
	if fr.off != len(buf) {
		return nil, ErrBatchFrame
	}
	return entries, nil
}

// decodeBatchResponseRef is the response decoder as it stood before
// DecodeBatchResponse was rebuilt on ResponseWalker, kept as the
// independent reference FuzzBatchFrame holds both to.
func decodeBatchResponseRef(buf []byte) ([]BatchResult, error) {
	fr := &frameReader{buf: buf}
	count, err := fr.header(BatchResponseMagic)
	if err != nil {
		return nil, err
	}
	results := make([]BatchResult, 0, min(count, (len(buf)-fr.off)/3))
	for i := 0; i < count; i++ {
		word, err := fr.byte()
		if err != nil {
			return nil, err
		}
		r := BatchResult{OK: word&batchOK != 0, CacheHit: word&batchCacheHit != 0, Shared: word&batchShared != 0}
		if r.OK {
			if word&batchRetry != 0 {
				return nil, ErrBatchFrame
			}
			key, err := fr.chunk()
			if err != nil {
				return nil, err
			}
			if r.Payload, err = fr.chunk(); err != nil {
				return nil, err
			}
			r.Key = string(key)
		} else {
			status, err := fr.uvarint()
			if err != nil {
				return nil, err
			}
			if status < 400 || status > 599 {
				return nil, ErrBatchFrame
			}
			msg, err := fr.chunk()
			if err != nil {
				return nil, err
			}
			r.Status, r.Msg = int(status), string(msg)
			if word&batchRetry != 0 {
				ms, err := fr.uvarint()
				if err != nil || ms > math.MaxInt64/uint64(time.Millisecond) {
					return nil, ErrBatchFrame
				}
				r.RetryAfter = time.Duration(ms) * time.Millisecond
			}
		}
		results = append(results, r)
	}
	if fr.off != len(buf) {
		return nil, ErrBatchFrame
	}
	return results, nil
}

func sameResult(a, b BatchResult) bool {
	return a.OK == b.OK && a.CacheHit == b.CacheHit && a.Shared == b.Shared && a.Key == b.Key &&
		bytes.Equal(a.Payload, b.Payload) && a.Status == b.Status && a.Msg == b.Msg && a.RetryAfter == b.RetryAfter
}

// checkResponseWalkerAgrees holds DecodeBatchResponse to the reference
// decoder, and the walker to DecodeBatchResponse entry by entry: the same
// frames accepted and rejected, the same fields.
func checkResponseWalkerAgrees(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeBatchResponseRef(data)
	got, gotErr := DecodeBatchResponse(data)
	if (wantErr == nil) != (gotErr == nil) || len(got) != len(want) {
		t.Fatalf("DecodeBatchResponse = (%d results, %v), reference (%d, %v)", len(got), gotErr, len(want), wantErr)
	}
	for i := range want {
		if !sameResult(got[i], want[i]) {
			t.Fatalf("result %d: DecodeBatchResponse %+v, reference %+v", i, got[i], want[i])
		}
	}
	w, err := WalkBatchResponse(data)
	if err == nil && gotErr == nil && w.Len() != len(got) {
		t.Fatalf("walker claims %d entries, DecodeBatchResponse decoded %d", w.Len(), len(got))
	}
	i := 0
	for ; err == nil && w.Next(); i++ {
		r := BatchResult{OK: w.OK, CacheHit: w.CacheHit, Shared: w.Shared, Key: string(w.Key), Payload: w.Payload,
			Status: w.Status, Msg: string(w.Msg), RetryAfter: w.RetryAfter}
		if gotErr == nil && !sameResult(r, got[i]) {
			t.Fatalf("walker entry %d = %+v, DecodeBatchResponse %+v", i, r, got[i])
		}
	}
	if err == nil {
		err = w.Err
	}
	if (err == nil) != (gotErr == nil) || (err == nil && i != len(got)) {
		t.Fatalf("walker walked %d entries, err %v; DecodeBatchResponse %d, err %v", i, err, len(got), gotErr)
	}
}

func sameEntries(a, b []BatchEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Class != b[i].Class || len(a[i].Params) != len(b[i].Params) ||
			strings.Join(a[i].Params, "\x00") != strings.Join(b[i].Params, "\x00") {
			return false
		}
	}
	return true
}

// The zero-copy walker, the decoder built on it and the reference decoder
// accept and reject the same frames and see the same entries; a frame
// re-assembled from the walker's views (what a front-end forwards) decodes
// to those entries too.
func checkWalkerAgrees(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeBatchRequestRef(data)
	got, gotErr := DecodeBatchRequest(data)
	if (wantErr == nil) != (gotErr == nil) || !sameEntries(want, got) {
		t.Fatalf("DecodeBatchRequest = (%+v, %v), reference (%+v, %v)", got, gotErr, want, wantErr)
	}
	var walked []BatchEntry
	var forwarded []byte
	w, err := WalkBatchRequest(data)
	for err == nil && w.Next() {
		params, perr := ParamsOfRun(w.Run)
		if perr != nil {
			t.Fatalf("walker yielded a run that does not split: %v", perr)
		}
		walked = append(walked, BatchEntry{ID: string(w.ID), Class: w.Class, Params: params})
		forwarded = AppendBatchEntry(forwarded, string(w.ID), w.Class, w.Run)
	}
	if err == nil {
		err = w.Err
	}
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("walker err = %v, reference err = %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !sameEntries(want, walked) {
		t.Fatalf("walker saw %+v, reference %+v", walked, want)
	}
	again, err := decodeBatchRequestRef(append(AppendBatchHeader(nil, len(walked)), forwarded...))
	if err != nil || !sameEntries(want, again) {
		t.Fatalf("frame rebuilt from walker views = (%+v, %v), want %+v", again, err, want)
	}
}

func TestBatchWalkerAgreesWithDecoder(t *testing.T) {
	good := AppendBatchRequest(nil, []BatchEntry{
		{ID: "E7", Class: admit.Interactive, Params: []string{"f=0.95", "bces=64"}},
		{ID: "E1", Class: admit.Batch},
		{ID: "", Class: admit.Batch, Params: []string{""}},
	})
	checkWalkerAgrees(t, good)
	for cut := 0; cut < len(good); cut++ {
		checkWalkerAgrees(t, good[:cut])
	}
	checkWalkerAgrees(t, append(good[:len(good):len(good)], 0))
	// A non-minimal varint count is a spelling the encoder never emits but
	// the decoders accept; the walker's Run carries it through verbatim.
	checkWalkerAgrees(t, append(AppendBatchEntry(AppendBatchHeader(nil, 1), "E1", admit.Batch, nil), 0x80, 0x00))
	// Response frames, the retry hint's four spellings among them, are not
	// request frames to walker or decoder.
	present, absent, onOK, overflow := retryHintFrames()
	for _, frame := range [][]byte{present, absent, onOK, overflow} {
		checkWalkerAgrees(t, frame)
	}
}

// FuzzBatchFrame drives both frame decoders over arbitrary bytes: no
// panic, no runaway allocation, and — the codec invariant — anything
// that decodes must survive an encode/decode round trip unchanged.
// (Byte-exact canonicality is not asserted: binary.Uvarint accepts
// non-minimal varints the encoder never emits.) On every input the
// zero-copy request walker must agree with the decoders, and the
// response walker with DecodeBatchResponse and the reference decoder.
func FuzzBatchFrame(f *testing.F) {
	f.Add(AppendBatchRequest(nil, []BatchEntry{
		{ID: "E7", Class: admit.Interactive, Params: []string{"f=0.95", "bces=64"}},
		{ID: "E1", Class: admit.Batch},
	}))
	f.Add(AppendBatchResponse(nil, []BatchResult{
		{OK: true, CacheHit: true, Key: "E7", Payload: []byte{9, 9}},
		{Status: 503, Msg: "queue full"},
	}))
	f.Add([]byte(BatchRequestMagic))
	f.Add([]byte(BatchResponseMagic))
	present, absent, onOK, overflow := retryHintFrames()
	for _, frame := range [][]byte{present, absent, onOK, overflow} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalkerAgrees(t, data)
		checkResponseWalkerAgrees(t, data)
		if entries, err := DecodeBatchRequest(data); err == nil {
			again, err := DecodeBatchRequest(AppendBatchRequest(nil, entries))
			if err != nil {
				t.Fatalf("re-encoded request frame failed to decode: %v", err)
			}
			if len(again) != len(entries) {
				t.Fatalf("round trip changed entry count: %d -> %d", len(entries), len(again))
			}
			for i := range entries {
				if again[i].ID != entries[i].ID || again[i].Class != entries[i].Class ||
					strings.Join(again[i].Params, "\x00") != strings.Join(entries[i].Params, "\x00") {
					t.Fatalf("entry %d changed in round trip: %+v -> %+v", i, entries[i], again[i])
				}
			}
		}
		if results, err := DecodeBatchResponse(data); err == nil {
			again, err := DecodeBatchResponse(AppendBatchResponse(nil, results))
			if err != nil {
				t.Fatalf("re-encoded response frame failed to decode: %v", err)
			}
			if len(again) != len(results) {
				t.Fatalf("round trip changed result count: %d -> %d", len(results), len(again))
			}
			for i := range results {
				if again[i].OK != results[i].OK || again[i].Key != results[i].Key ||
					again[i].Status != results[i].Status || again[i].Msg != results[i].Msg ||
					again[i].RetryAfter != results[i].RetryAfter ||
					!bytes.Equal(again[i].Payload, results[i].Payload) {
					t.Fatalf("result %d changed in round trip: %+v -> %+v", i, results[i], again[i])
				}
			}
		}
	})
}

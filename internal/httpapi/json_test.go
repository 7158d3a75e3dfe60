package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// jsonStringCorpus is what encoding/json treats specially: every ASCII
// byte, the HTML set, the two-character escapes, U+2028/9 and their
// neighbours, truncated and invalid UTF-8, and strings the serving tier
// really writes (cache keys, findings, a rendered report).
func jsonStringCorpus() []string {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	return []string{"", "E7", "E7?bces=64&f=0.99", "<script>a && b</script>", `"\`, "\x00\x1f\x7f",
		"a\nb\tc\rd\be\ff\vg", "héllo — wörld", "\u2027\u2028\u2029\u202a", "\xe2\x80", "\xe2\x80\xa8\xe2",
		"\xff\xfe", "é\xc3", "\xf0\x9f\x98\x80", "\xed\xa0\x80", string(all),
		"sweep E7: 4 points over f, bces\nf    bces  headline\n---  ----\nnote: x\n"}
}

func checkJSONString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	if got := AppendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := 0
	for _, s := range jsonStringCorpus() {
		checkJSONString(t, s)
		cases++
	}
	// Seeded random byte strings over an alphabet dense in the special
	// cases, so runs of escapes and split runes meet each other.
	alphabet := []byte("ab<>&\"\\\n\t\x01\x7f\xe2\x80\xa8\xa9\xc3\xa9\xff ")
	rng := rand.New(rand.NewSource(22))
	for ; cases < 20000; cases++ {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkJSONString(t, string(b))
	}
	t.Logf("%d strings byte-identical to json.Marshal", cases)
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkJSONString(t, s) })
}

// Non-finite numbers fail as json.Marshal fails them and append nothing.
func TestAppendJSONFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendJSONFloat([]byte("x"), f)
		if err == nil || err.Error() != want.Error() || string(got) != "x" {
			t.Errorf("AppendJSONFloat(%v) = %q, %v; want \"x\" and %v", f, got, err, want)
		}
	}
}

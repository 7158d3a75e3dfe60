package httpapi

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// jsonSafe marks the ASCII bytes a JSON string carries as they are.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendJSONString appends s quoted as json.Marshal quotes it (HTML
// escaping on) — a port of encoding/json's appendString, \u2028, \u2029
// and `\ufffd` for an invalid byte included. With AppendJSONFloat it is the
// one hand-written JSON appender: the /run envelope head, the routed
// envelope and the /sweep NDJSON lines write through the two.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			i++
			if jsonSafe[c] {
				continue
			}
			b = append(b, s[start:i-1]...)
			start = i
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b', '\f', '\n', '\r', '\t':
				b = append(b, '\\', "btn.fr"[c-'\b'])
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b, start = append(append(b, s[start:i]...), `\ufffd`...), i+size
		case r == '\u2028' || r == '\u2029':
			b, start = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF]), i+size
		}
		i += size
	}
	return append(append(b, s[start:]...), '"')
}

// AppendJSONFloat appends f in encoding/json's number format; NaN and
// ±Inf append nothing and fail with the error json.Marshal fails them with.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		// e-09 prints as e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b, nil
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64), nil
}

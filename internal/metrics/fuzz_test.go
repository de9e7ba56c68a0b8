package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendStringMatchesEncodingJSON compares AppendJSONString with
// encoding/json's string encoding: json.Marshal's, which escapes HTML
// characters, and an Encoder's after SetEscapeHTML(false).
func FuzzAppendStringMatchesEncodingJSON(f *testing.F) {
	for _, s := range []string{"", "table1/MACAW", `<a href="x">&amp;</a>`, "\u2028\u2029", "\xff\xfe",
		"\x00\x1f\x7f\b\f\n\r\t\"\\", "é雨🙂", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		html, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("x"), s, true); !bytes.Equal(got[1:], html) || got[0] != 'x' {
			t.Errorf("AppendJSONString(%q, true) = %s, want %s", s, got[1:], html)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		plain := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := AppendJSONString(nil, s, false); !bytes.Equal(got, plain) {
			t.Errorf("AppendJSONString(%q, false) = %s, want %s", s, got, plain)
		}
	})
}

package cparse

import "testing"

// TestTokNamesComplete checks that every token kind has a name and that
// every keyword's name lexes back to its kind.
func TestTokNamesComplete(t *testing.T) {
	for k := EOF; k <= KwTrustedCast; k++ {
		if tokNames[k] == "" {
			t.Errorf("token kind %d has no name", int(k))
		}
	}
	for k := KwVoid; k <= KwTrustedCast; k++ {
		if keywords[k.String()] != k {
			t.Errorf("keyword %q maps to %v, want kind %d", k.String(), keywords[k.String()], int(k))
		}
	}
	if len(keywords) != int(KwTrustedCast-KwVoid+1) {
		t.Errorf("%d keywords, want %d", len(keywords), KwTrustedCast-KwVoid+1)
	}
	if got := TokKind(-1).String(); got != "tok(-1)" {
		t.Errorf("TokKind(-1) = %q", got)
	}
}

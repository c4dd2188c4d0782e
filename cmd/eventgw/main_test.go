package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestReadTokenFile reads a -token-file written by hand on two systems:
// CRLF line ends, blank lines and white space around a token are not
// part of any token, and a line is one token, spaces inside included.
func TestReadTokenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tokens")
	if err := os.WriteFile(path, []byte("  alpha  \r\n\r\nbeta\r\n\n \t \ngamma\t\ntwo words \ndelta"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := readTokens(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "beta", "gamma", "two words", "delta"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens = %q, want %q", got, want)
	}
	if _, err := readTokens(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("a missing token file read without error")
	}
}

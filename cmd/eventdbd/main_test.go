package main

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want string // substring of the refusal; "" = accepted
	}{
		{"defaults", validate("", "", false, 0), ""},
		{"follower with dir", validate("d", "127.0.0.1:7070", false, 0), ""},
		{"follower without dir", validate("", "127.0.0.1:7070", false, 0), "-follow requires -dir"},
		{"eviction under drop-on-full", validate("", "", true, 8), ""},
		{"eviction while blocking", validate("", "", false, 8), "-evict-after-drops requires -drop-on-full"},
		{"drop-on-full alone", validate("", "", true, 0), ""},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: refused: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}

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
		{"defaults", validate("", "", 0, false, 0, 0), ""},
		{"follower with dir", validate("d", "127.0.0.1:7070", 0, false, 0, 0), ""},
		{"follower without dir", validate("", "127.0.0.1:7070", 0, false, 0, 0), "-follow requires -dir"},
		{"queue watermark on shards", validate("", "", 1, false, 0, 0.8), ""},
		{"queue watermark without shards", validate("", "", 0, false, 0, 0.8), "-shed-high-water requires -shards"},
		{"eviction under drop-on-full", validate("", "", 0, true, 8, 0), ""},
		{"eviction while blocking", validate("", "", 0, false, 8, 0), "-evict-after-drops requires -drop-on-full"},
		{"drop-on-full alone", validate("", "", 1, true, 0, 0), ""},
		{"-shards 1 accepted", validate("", "", 1, false, 0, 0), ""},
		{"-shards 2 refused", validate("", "", 2, false, 0, 0), "-shards 1 keeps every order"},
	} {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: refused: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, tc.err, tc.want)
		}
	}
}

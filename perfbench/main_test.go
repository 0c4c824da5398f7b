package main

import (
	"bytes"
	"testing"
)

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "rpc", "--seconds", "0"},
		{"--workload", "rpc", "--trace", "2"},
		{"--workload", "rpc", "--no-such-flag"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q; a refused run prints no result", args, out.String())
		}
	}
}

package cliutil

import (
	"strings"
	"testing"
	"time"
)

func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name    string
		f       RunFlags
		wantErr string // substring, "" = valid
	}{
		{"default", RunFlags{}, ""},
		{"inproc", RunFlags{Transport: "inproc"}, ""},
		{"tcp spawn", RunFlags{Transport: "tcp", Workers: 2}, ""},
		{"tcp attach", RunFlags{Transport: "tcp", WorkerAddrs: "127.0.0.1:7100"}, ""},
		{"resume with checkpoint", RunFlags{Resume: true, Checkpoint: "ck"}, ""},
		{"tcp attach multi", RunFlags{Transport: "tcp", WorkerAddrs: "127.0.0.1:7100,127.0.0.1:7101"}, ""},
		{"heartbeat configured", RunFlags{Transport: "tcp", Workers: 2, Heartbeat: 250 * time.Millisecond, HeartbeatMisses: 2}, ""},
		{"heartbeat disabled", RunFlags{Transport: "tcp", Workers: 2}, ""},

		{"unknown transport", RunFlags{Transport: "udp"}, `-transport "udp"`},
		{"resume without checkpoint", RunFlags{Resume: true}, "-resume needs -checkpoint"},
		{"workers without tcp", RunFlags{Workers: 2}, "-workers only applies"},
		{"addrs without tcp", RunFlags{WorkerAddrs: "127.0.0.1:7100"}, "-worker-addrs only applies"},
		{"workers and addrs", RunFlags{Transport: "tcp", Workers: 2, WorkerAddrs: "127.0.0.1:7100"}, "one or the other"},
		{"negative workers", RunFlags{Transport: "tcp", Workers: -1}, "positive count"},
		{"duplicate addrs", RunFlags{Transport: "tcp", WorkerAddrs: "127.0.0.1:7100,127.0.0.1:7100"},
			"duplicate address 127.0.0.1:7100"},
		{"duplicate addrs spaced", RunFlags{Transport: "tcp", WorkerAddrs: "127.0.0.1:7100, 127.0.0.1:7100"},
			"duplicate address"},
		{"empty addr entry", RunFlags{Transport: "tcp", WorkerAddrs: "127.0.0.1:7100,,127.0.0.1:7101"},
			"empty address"},
		{"negative heartbeat", RunFlags{Transport: "tcp", Workers: 1, Heartbeat: -time.Second}, "-net-heartbeat"},
		{"negative misses", RunFlags{Transport: "tcp", Workers: 1, Heartbeat: time.Second, HeartbeatMisses: -1},
			"-net-heartbeat-misses"},
		{"misses without probing", RunFlags{Transport: "tcp", Workers: 1, HeartbeatMisses: 3},
			"needs -net-heartbeat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateRunFlags(tc.f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runQuery runs `ariadne query args...` in-process and returns its stdout.
func runQuery(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	qerr := cmdQuery(args)
	os.Stdout = stdout
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), qerr
}

// TestQueryMode drives `ariadne query -mode` over a query of each class: auto
// runs online when the class allows it, else layered, else naive; an explicit
// mode runs as given; anything else is an error naming the four modes. The
// output names the mode that ran.
func TestQueryMode(t *testing.T) {
	mixed := filepath.Join(t.TempDir(), "mixed.pql")
	// Backward lineage plus an evolution literal: classified mixed.
	if err := os.WriteFile(mixed, []byte(`
back_trace(X, I) :- superstep(X, I), I = 5, X = 0.
back_trace(X, I) :- send_message(X, Y, M, I), back_trace(Y, J), J = I + 1.
back_step(X, J) :- back_trace(X, I), evolution(X, J, I).
`), 0o644); err != nil {
		t.Fatal(err)
	}
	backward := []string{"-param", "sigma=5", "-param", "alpha=0", filepath.Join("..", "..", "testdata", "backward.pql")}
	forward := []string{"-param", "eps=0.01", filepath.Join("..", "..", "testdata", "apt.pql")}
	cases := []struct {
		name    string
		mode    string
		query   []string
		want    string // substring of stdout
		wantErr string // substring of the error, "" = success
	}{
		{"auto mixed", "auto", []string{mixed}, "evaluated naive offline", ""},
		{"auto backward", "auto", backward, "evaluated layered offline", ""},
		{"auto forward", "auto", forward, "evaluated online", ""},
		{"layered", "layered", backward, "evaluated layered offline", ""},
		{"naive", "naive", backward, "evaluated naive offline", ""},
		{"online", "online", forward, "evaluated online", ""},
		{"layered mixed", "layered", []string{mixed}, "", "cannot be evaluated layered"},
		{"misspelled", "lyaered", backward, "", `-mode "lyaered": want auto, online, layered, or naive`},
		{"empty", "", backward, "", "want auto, online, layered, or naive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runQuery(t, append([]string{"-mode", tc.mode}, tc.query...)...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q; output:\n%s", err, tc.wantErr, out)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v; output:\n%s", err, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}

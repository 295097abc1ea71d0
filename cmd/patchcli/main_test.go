package main

import (
	"bytes"
	"context"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/server"
)

// TestEmbeddedAndRemoteShellsAgree drives one script through the shell twice
// over the same data — against an embedded engine and against a server
// reached over the wire — and requires the same transcript from both.
func TestEmbeddedAndRemoteShellsAgree(t *testing.T) {
	script := strings.Join([]string{
		`\trace on`,
		"SELECT COUNT(DISTINCT u) FROM data;",
		`\queries`,
		`\workload`,
		`\tune now`,
		`\tune`,
		`\indexes`,
		`\alerts`,
		`\q`,
	}, "\n")

	var embeddedOut, embeddedErr bytes.Buffer
	repl(embedded{newShellEngine(t)}, strings.NewReader(script), &embeddedOut, &embeddedErr)

	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", Engine: newShellEngine(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	cli, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var remoteOut, remoteErr bytes.Buffer
	repl(remote{cli}, strings.NewReader(script), &remoteOut, &remoteErr)

	if embeddedErr.Len() > 0 || remoteErr.Len() > 0 {
		t.Fatalf("shell errors: embedded %q, remote %q", embeddedErr.String(), remoteErr.String())
	}
	want, got := normalize(embeddedOut.String()), normalize(remoteOut.String())
	if got != want {
		t.Fatalf("remote transcript differs from embedded\n--- embedded ---\n%s\n--- remote ---\n%s", want, got)
	}
	// Every macro printed its report.
	for _, header := range []string{"trace_id", "fingerprint", "tuner cycle 1", "setting", "representation", "rule"} {
		if !strings.Contains(want, header) {
			t.Errorf("transcript has no %q:\n%s", header, want)
		}
	}
}

func newShellEngine(t *testing.T) *patchindex.Engine {
	t.Helper()
	eng, err := patchindex.New(patchindex.Config{WorkloadProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	tab, err := datagen.LoadCustom("data", 4000, 2, 0.05, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Catalog().AddTable(tab); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE PATCHINDEX ON data(u) UNIQUE THRESHOLD 0.5"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// volatile names the columns whose cells differ between two runs of the
// same script: trace and session ids, and measured durations.
var volatile = map[string]bool{"trace_id": true, "session": true, "duration": true, "total": true, "ewma": true}

// footer matches the "-- <duration>" line printed after each result.
var footer = regexp.MustCompile(`^-- [0-9]`)

// normalize makes two transcripts comparable. It drops prompts and the
// "-- <duration>" footers, cuts each table into cells at the columns of its
// dashed separator line, blanks the volatile cells and sorts the rows
// (SHOW WORKLOAD orders by measured time).
func normalize(out string) string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		for strings.HasPrefix(line, "sql> ") || strings.HasPrefix(line, "...> ") {
			line = line[len("sql> "):]
		}
		if !footer.MatchString(line) {
			lines = append(lines, line)
		}
	}
	var norm []string
	for i := 0; i < len(lines); i++ {
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "--") {
			norm = append(norm, lines[i])
			continue
		}
		var starts []int
		for j, c := range lines[i+1] {
			if c == '-' && (j == 0 || lines[i+1][j-1] == ' ') {
				starts = append(starts, j)
			}
		}
		cells := func(line string) []string {
			cs := make([]string, len(starts))
			for k, s := range starts {
				end := len(line)
				if k+1 < len(starts) {
					end = starts[k+1]
				}
				if s < len(line) {
					cs[k] = strings.TrimSpace(line[s:min(end, len(line))])
				}
			}
			return cs
		}
		header := cells(lines[i])
		var rows []string
		for i += 2; i < len(lines) && !strings.HasSuffix(lines[i], " rows)"); i++ {
			row := cells(lines[i])
			for k, name := range header {
				if volatile[name] {
					row[k] = "*"
				}
			}
			rows = append(rows, strings.Join(row, " | "))
		}
		sort.Strings(rows)
		norm = append(norm, strings.Join(header, " | "))
		norm = append(norm, rows...)
		if i < len(lines) {
			norm = append(norm, lines[i])
		}
	}
	return strings.Join(norm, "\n")
}

// Command patchcli is an interactive SQL shell for the patchindex engine,
// embedded or connected to a patchserver. It can pre-load the demo datasets
// so PatchIndex behaviour is explorable interactively:
//
//	patchcli                       # empty engine
//	patchcli -demo tpcds           # customer, catalog_sales, date_dim
//	patchcli -demo custom -rows N  # the custom exception-rate table
//	patchcli -e "SELECT ..."       # execute one statement and exit
//	patchcli -e "SELECT ..." stats # ... then dump engine metrics
//	patchcli -connect host:5433    # remote shell against a patchserver
//	patchcli -connect host:5433 -tenant dash   # ... as QoS tenant "dash"
//
// Inside the shell, statements end with ';'. Every report is a SHOW
// statement, and the report commands are macros for them, so the embedded
// and the remote shell print the same tables:
//
//	\queries                      SHOW QUERIES (traced statements, newest first)
//	\workload                     SHOW WORKLOAD (enable with -workload)
//	\indexes                      SHOW PATCHINDEXES
//	\alerts                       SHOW ALERTS
//	\tune [on|off|now|rollback]   SHOW TUNER / ALTER TUNER START|STOP|NOW|ROLLBACK
//
// \stats prints the metrics registry and \trace on|off traces every
// statement (the trace id is printed after each result). The embedded
// shell also has \workload on|off (the workload observatory) and
// \alerts on|off (the health watchdog's sampler); the remote shell has
// \set KEY VALUE for session settings. Try:
//
//	SHOW TABLES;
//	CREATE PATCHINDEX ON customer(c_email_address) UNIQUE THRESHOLD 0.1;
//	EXPLAIN SELECT COUNT(DISTINCT c_email_address) FROM customer;
//	EXPLAIN ANALYZE SELECT COUNT(DISTINCT c_email_address) FROM customer;
//	SELECT COUNT(DISTINCT c_email_address) FROM customer;
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/server"
	"patchindex/internal/tuning"
	"patchindex/internal/vector"
)

func main() {
	demo := flag.String("demo", "", "preload dataset: tpcds or custom")
	rows := flag.Int("rows", 1_000_000, "rows for -demo custom / sales rows for -demo tpcds")
	partitions := flag.Int("partitions", 8, "partitions for preloaded tables")
	uniqueRate := flag.Float64("unique-rate", 0.05, "uniqueness exception rate for -demo custom")
	sortedRate := flag.Float64("sorted-rate", 0.05, "sortedness exception rate for -demo custom")
	execStmt := flag.String("e", "", "execute one statement and exit")
	parallelism := flag.Int("parallelism", 0, "degree of intra-query parallelism (0 = serial, >1 = bounded worker pool)")
	slowMS := flag.Int("slow-ms", 0, "log statements slower than this many milliseconds")
	workload := flag.Bool("workload", false, "enable the workload observatory (statement fingerprinting, benefit attribution)")
	workloadFPs := flag.Int("workload-fingerprints", 0, "max statement fingerprints tracked (0 = default 256)")
	tune := flag.Bool("tune", false, "start the background self-tuner (implies -workload)")
	tuneIntervalMS := flag.Int("tune-interval-ms", 0, "self-tuner cycle period in milliseconds (0 = default)")
	connect := flag.String("connect", "", "connect to a patchserver at host:port instead of running an embedded engine")
	tenant := flag.String("tenant", "", "QoS tenant for the remote session (with -connect; also `\\set tenant ID` at runtime); ids the server does not list share its default tenant's in-flight cap")
	flag.Parse()

	if *connect != "" {
		if err := remoteShell(*connect, *tenant, *execStmt); err != nil {
			fatal(err)
		}
		return
	}

	eng, err := patchindex.New(patchindex.Config{
		DefaultPartitions:    *partitions,
		Parallelism:          *parallelism,
		SlowQueryThreshold:   time.Duration(*slowMS) * time.Millisecond,
		WorkloadProfile:      *workload,
		WorkloadFingerprints: *workloadFPs,
		AutoTune:             *tune,
		Tuning:               tuning.Config{Interval: time.Duration(*tuneIntervalMS) * time.Millisecond},
	})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	switch *demo {
	case "":
	case "tpcds":
		cfg := datagen.TPCDSConfig{
			CustomerRows: *rows / 8,
			SalesRows:    *rows,
			Partitions:   *partitions,
			Seed:         1,
		}
		fmt.Fprintf(os.Stderr, "loading tpcds-lite (customer=%d, catalog_sales=%d, date_dim=%d)...\n",
			cfg.CustomerRows, cfg.SalesRows, datagen.DateDimRows)
		cust, err := datagen.GenCustomer(cfg)
		if err != nil {
			fatal(err)
		}
		if err := eng.Catalog().AddTable(cust); err != nil {
			fatal(err)
		}
		sales, err := datagen.GenCatalogSales(cfg)
		if err != nil {
			fatal(err)
		}
		if err := eng.Catalog().AddTable(sales); err != nil {
			fatal(err)
		}
		dates, err := datagen.GenDateDim()
		if err != nil {
			fatal(err)
		}
		if err := eng.Catalog().AddTable(dates); err != nil {
			fatal(err)
		}
	case "custom":
		fmt.Fprintf(os.Stderr, "loading custom table data(u,s,payload) with %d rows...\n", *rows)
		t, err := datagen.LoadCustom("data", *rows, *partitions, *uniqueRate, *sortedRate, 1)
		if err != nil {
			fatal(err)
		}
		if err := eng.Catalog().AddTable(t); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown demo %q (tpcds, custom)", *demo))
	}

	b := embedded{eng}
	if *execStmt != "" {
		if err := run(b, os.Stdout, *execStmt, false); err != nil {
			fatal(err)
		}
		if flag.Arg(0) == "stats" {
			eng.Metrics().WriteText(os.Stdout)
		}
		return
	}

	// `patchcli stats` without -e: run nothing, dump the (empty) registry —
	// mostly useful after -demo loading to see index build timings.
	if flag.Arg(0) == "stats" {
		eng.Metrics().WriteText(os.Stdout)
		return
	}

	fmt.Println("patchindex shell — " + help)
	repl(b, os.Stdin, os.Stdout, os.Stderr)
}

// remoteShell runs the shell (or a single -e statement) against a remote
// patchserver. A non-empty tenant moves the session to that QoS tenant
// before the first statement.
func remoteShell(addr, tenant, execStmt string) error {
	cli, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	if tenant != "" {
		if err := cli.SetTenant(tenant); err != nil {
			return err
		}
	}
	b := remote{cli}
	if execStmt != "" {
		return run(b, os.Stdout, execStmt, false)
	}
	fmt.Printf("patchindex shell — connected to %s (session %d)\n%s\n", addr, cli.SessionID(), help)
	repl(b, os.Stdin, os.Stdout, os.Stderr)
	return nil
}

const help = `statements end with ';', \q quits, \stats prints metrics, \trace on|off, \queries, \workload, \indexes, \tune [on|off|now|rollback], \alerts; embedded: \workload on|off, \alerts on|off; remote: \set KEY VALUE (timeout_ms, max_rows, disable_rewrites, parallelism, tenant)`

// macros maps each report command to the SQL statement it runs.
var macros = map[string]string{
	`\queries`:       "SHOW QUERIES",
	`\workload`:      "SHOW WORKLOAD",
	`\indexes`:       "SHOW PATCHINDEXES",
	`\alerts`:        "SHOW ALERTS",
	`\tune`:          "SHOW TUNER",
	`\tune on`:       "ALTER TUNER START",
	`\tune off`:      "ALTER TUNER STOP",
	`\tune now`:      "ALTER TUNER NOW",
	`\tune rollback`: "ALTER TUNER ROLLBACK",
}

// backend is where the shell's statements run: the embedded engine or a
// patchserver session.
type backend interface {
	// exec runs one statement, tracing it when trace is set.
	exec(stmt string, trace bool) (*patchindex.Result, error)
	// stats returns the metrics registry as text.
	stats() (string, error)
}

type embedded struct{ eng *patchindex.Engine }

func (b embedded) exec(stmt string, trace bool) (*patchindex.Result, error) {
	return b.eng.ExecWith(stmt, patchindex.ExecOptions{Trace: trace})
}

func (b embedded) stats() (string, error) {
	var sb strings.Builder
	err := b.eng.Metrics().WriteText(&sb)
	return sb.String(), err
}

type remote struct{ cli *server.Client }

// exec converts the wire result's string cells into a Result, so both
// backends render through Result.String.
func (b remote) exec(stmt string, trace bool) (*patchindex.Result, error) {
	b.cli.Trace(trace)
	r, err := b.cli.Query(stmt)
	if err != nil {
		return nil, err
	}
	res := &patchindex.Result{Columns: r.Columns, Message: r.Message, Duration: r.Duration, TraceID: r.TraceID}
	for _, row := range r.Rows {
		vals := make([]vector.Value, len(row))
		for i, cell := range row {
			vals[i] = vector.StringValue(cell)
		}
		res.Rows = append(res.Rows, vals)
	}
	if r.Truncated {
		res.Message = "(truncated to max_rows)"
	}
	return res, nil
}

func (b remote) stats() (string, error) { return b.cli.Stats() }

// repl reads statements and backslash commands from in until EOF or \q.
// Results go to out, errors to errOut.
func repl(b backend, in io.Reader, out, errOut io.Writer) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	trace := false
	prompt := "sql> "
	for {
		fmt.Fprint(out, prompt)
		if !scanner.Scan() {
			break
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == `\q` || trimmed == "quit" || trimmed == "exit") {
			break
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			cmd := strings.Join(strings.Fields(trimmed), " ")
			if err := command(b, out, cmd, &trace); err != nil {
				fmt.Fprintf(errOut, "error: %v\n", err)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "sql> "
			if err := run(b, out, stmt, trace); err != nil {
				fmt.Fprintf(errOut, "error: %v\n", err)
			}
		} else if buf.Len() > 0 {
			prompt = "...> "
		}
	}
}

// command runs one backslash command (whitespace-normalized).
func command(b backend, out io.Writer, cmd string, trace *bool) error {
	if stmt, ok := macros[cmd]; ok {
		return run(b, out, stmt, *trace)
	}
	fields := strings.Fields(cmd)
	switch cmd {
	case `\stats`:
		text, err := b.stats()
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
		return nil
	case `\trace on`, `\trace off`:
		*trace = fields[1] == "on"
		fmt.Fprintf(out, "tracing %s\n", fields[1])
		return nil
	case `\workload on`, `\workload off`, `\alerts on`, `\alerts off`:
		e, ok := b.(embedded)
		if !ok {
			return fmt.Errorf("%s works only in the embedded shell", cmd)
		}
		on := fields[1] == "on"
		if fields[0] == `\workload` {
			e.eng.Profiler().SetEnabled(on)
			fmt.Fprintf(out, "workload profiling %s\n", fields[1])
		} else {
			if on {
				e.eng.Monitor().Start()
			} else {
				e.eng.Monitor().Stop()
			}
			fmt.Fprintf(out, "health watchdog %s\n", fields[1])
		}
		return nil
	}
	if fields[0] == `\set` {
		r, ok := b.(remote)
		if !ok {
			return fmt.Errorf(`\set works only with -connect`)
		}
		if len(fields) != 3 {
			return fmt.Errorf(`usage: \set KEY VALUE`)
		}
		return r.cli.Set(map[string]string{fields[1]: fields[2]})
	}
	return fmt.Errorf("unknown command %s", cmd)
}

// run executes one statement and prints its result, any note a result
// with columns carries in Message (a remote result clipped by max_rows),
// then a "-- <duration>" footer that names the trace id when the statement
// was traced.
func run(b backend, out io.Writer, stmt string, trace bool) error {
	res, err := b.exec(stmt, trace)
	if err != nil {
		return err
	}
	s := res.String()
	fmt.Fprint(out, s)
	if !strings.HasSuffix(s, "\n") {
		fmt.Fprintln(out)
	}
	if len(res.Columns) > 0 && res.Message != "" {
		fmt.Fprintln(out, res.Message)
	}
	if res.TraceID != 0 {
		fmt.Fprintf(out, "-- %s (trace %d)\n", res.Duration.Round(time.Microsecond), res.TraceID)
	} else {
		fmt.Fprintf(out, "-- %s\n", res.Duration.Round(time.Microsecond))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "patchcli: %v\n", err)
	os.Exit(1)
}

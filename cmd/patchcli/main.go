// Command patchcli is an interactive SQL shell for the patchindex engine.
// It can pre-load the demo datasets so PatchIndex behaviour is explorable
// interactively:
//
//	patchcli                       # empty engine
//	patchcli -demo tpcds           # customer, catalog_sales, date_dim
//	patchcli -demo custom -rows N  # the custom exception-rate table
//	patchcli -e "SELECT ..."       # execute one statement and exit
//	patchcli -e "SELECT ..." stats # ... then dump engine metrics
//	patchcli -connect host:5433    # remote shell against a patchserver
//	patchcli -connect host:5433 -tenant dash   # ... as QoS tenant "dash"
//
// Inside the shell, statements end with ';', \stats prints the engine
// metrics registry, \trace on|off toggles per-statement tracing (the trace
// id is printed after each result), \queries lists the recent query history
// from the tracer's ring, \workload prints the workload observatory report
// (enable with -workload or \workload on), \indexes prints per-index
// health with benefit attribution, \tune [on|off|now|rollback] controls
// the background self-tuner (enable at startup with -tune), and
// \alerts [on|off] prints the health watchdog's alert standings (on/off
// starts or stops its sampler; SHOW ALERTS and SHOW TIMESERIES FOR <metric>
// work as SQL too). Try:
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
	"os"
	"strings"
	"time"

	"patchindex"
	"patchindex/internal/datagen"
	"patchindex/internal/obs"
	"patchindex/internal/server"
	"patchindex/internal/tuning"
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
	tenant := flag.String("tenant", "", "QoS tenant for the remote session (with -connect; also `\\set tenant ID` at runtime)")
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

	if *execStmt != "" {
		if err := runStatement(eng, *execStmt, false); err != nil {
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

	fmt.Println("patchindex shell — statements end with ';', \\q quits, \\stats prints metrics, \\trace on|off, \\queries, \\workload [on|off], \\indexes, \\tune [on|off|now|rollback], \\alerts [on|off]")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	traceOn := false
	prompt := "sql> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			break
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "\\q" || trimmed == "quit" || trimmed == "exit") {
			break
		}
		if buf.Len() == 0 && trimmed == "\\stats" {
			eng.Metrics().WriteText(os.Stdout)
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\trace") {
			if on, err := parseTraceArg(trimmed); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				traceOn = on
				fmt.Printf("tracing %s\n", onOff(traceOn))
			}
			continue
		}
		if buf.Len() == 0 && trimmed == "\\queries" {
			printQueries(eng.Tracer().Recent(20))
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\workload") {
			switch strings.TrimSpace(strings.TrimPrefix(trimmed, "\\workload")) {
			case "on":
				eng.Profiler().SetEnabled(true)
				fmt.Println("workload profiling on")
			case "off":
				eng.Profiler().SetEnabled(false)
				fmt.Println("workload profiling off")
			case "":
				obs.WriteWorkloadText(os.Stdout, eng.Profiler().Snapshot(), 20)
			default:
				fmt.Fprintln(os.Stderr, "usage: \\workload [on|off]")
			}
			continue
		}
		if buf.Len() == 0 && trimmed == "\\indexes" {
			printIndexes(eng)
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\tune") {
			if err := runTuneCommand(eng, strings.TrimSpace(strings.TrimPrefix(trimmed, "\\tune"))); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\alerts") {
			switch strings.TrimSpace(strings.TrimPrefix(trimmed, "\\alerts")) {
			case "on":
				eng.Monitor().Start()
				fmt.Println("health watchdog on")
			case "off":
				eng.Monitor().Stop()
				fmt.Println("health watchdog off")
			case "":
				a := eng.Monitor().Alerter()
				obs.WriteAlertsText(os.Stdout, a.Alerts(), a.History(20))
			default:
				fmt.Fprintln(os.Stderr, "usage: \\alerts [on|off]")
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "sql> "
			if err := runStatement(eng, stmt, traceOn); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		} else if buf.Len() > 0 {
			prompt = "...> "
		}
	}
}

// parseTraceArg parses "\trace on" / "\trace off".
func parseTraceArg(cmd string) (bool, error) {
	fields := strings.Fields(cmd)
	if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
		return false, fmt.Errorf("usage: \\trace on|off")
	}
	return fields[1] == "on", nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// printQueries renders the local engine's recent query history.
func printQueries(traces []*obs.Trace) {
	if len(traces) == 0 {
		fmt.Println("no completed queries recorded (enable with \\trace on or -trace-sample)")
		return
	}
	fmt.Printf("%-8s  %-7s  %-12s  %8s  %10s  %s\n", "trace_id", "sampled", "duration", "rows", "patch_hits", "sql")
	for _, t := range traces {
		sqlText := strings.Join(strings.Fields(t.SQL), " ")
		if len(sqlText) > 60 {
			sqlText = sqlText[:60] + "..."
		}
		if t.Error != "" {
			sqlText += " [error: " + t.Error + "]"
		}
		fmt.Printf("%-8d  %-7t  %-12s  %8d  %10d  %s\n",
			t.ID, t.Sampled, t.Duration.Round(time.Microsecond), t.Rows, t.PatchHits, sqlText)
	}
}

// printIndexes renders the local engine's per-index health with workload
// benefit attribution (the embedded counterpart of the server's \indexes).
func printIndexes(eng *patchindex.Engine) {
	p := eng.Profiler()
	tick := p.Tick()
	health := eng.IndexHealth()
	fmt.Printf("indexes: %d tick=%d\n", len(health), tick)
	for _, h := range health {
		fmt.Printf("  %s.%s %s kind=%s patches=%d rows=%d ratio=%.4f util=%.2f bytes=%d\n",
			h.Table, h.Column, h.Constraint, h.Kinds, h.Patches, h.Rows,
			h.PatchRatio, h.ThresholdUtilization, h.MemoryBytes)
		if h.Rewrites > 0 || h.RowsSkipped > 0 || h.LastUsedTick > 0 {
			fmt.Printf("    benefit: rewrites=%d rows_skipped=%.0f cost_saved=%.1f time_saved=%s last_used_tick=%d\n",
				h.Rewrites, h.RowsSkipped, h.CostSaved,
				time.Duration(h.TimeSavedNanos).Round(time.Microsecond), h.LastUsedTick)
		}
	}
	benefits := p.Benefit().Snapshot(tick)
	if len(benefits) > 0 {
		fmt.Println("attribution:")
		for _, b := range benefits {
			name := b.Table + "[" + b.Constraint + "]"
			if b.Column != "" {
				name = b.Table + "." + b.Column + "[" + b.Constraint + "]"
			}
			fmt.Printf("  %s rewrites=%d rows_skipped=%.0f cost_saved=%.1f time_saved=%s last_used_tick=%d\n",
				name, b.Rewrites, b.RowsSkipped, b.CostSaved,
				time.Duration(b.TimeSavedNanos).Round(time.Microsecond), b.LastUsedTick)
		}
	}
}

// runTuneCommand drives the local engine's self-tuner: bare \tune prints
// SHOW TUNER, the arguments map onto ALTER TUNER statements.
func runTuneCommand(eng *patchindex.Engine, arg string) error {
	stmt := ""
	switch arg {
	case "":
		stmt = "SHOW TUNER"
	case "on":
		stmt = "ALTER TUNER START"
	case "off":
		stmt = "ALTER TUNER STOP"
	case "now":
		stmt = "ALTER TUNER NOW"
	case "rollback":
		stmt = "ALTER TUNER ROLLBACK"
	default:
		return fmt.Errorf("usage: \\tune [on|off|now|rollback]")
	}
	res, err := eng.Exec(stmt)
	if err != nil {
		return err
	}
	s := res.String()
	fmt.Print(s)
	if !strings.HasSuffix(s, "\n") {
		fmt.Println()
	}
	return nil
}

// remoteShell runs the REPL (or a single -e statement) against a remote
// patchserver. \stats fetches the server-side metrics registry; \set
// KEY VALUE adjusts session settings (timeout_ms, max_rows,
// disable_rewrites, tenant); \trace on|off requests a server-side trace for
// every statement; \queries lists the server's recent query history. A
// non-empty tenant moves the session to that QoS tenant before the first
// statement.
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

	if execStmt != "" {
		return runRemote(cli, execStmt)
	}

	fmt.Printf("patchindex shell — connected to %s (session %d)\n", addr, cli.SessionID())
	fmt.Println("statements end with ';', \\q quits, \\stats prints server metrics, \\set KEY VALUE adjusts settings (timeout_ms, max_rows, disable_rewrites, tenant), \\trace on|off, \\queries, \\workload, \\indexes, \\tune [on|off|now|rollback], \\alerts")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "sql> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			break
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "\\q" || trimmed == "quit" || trimmed == "exit") {
			break
		}
		if buf.Len() == 0 && trimmed == "\\stats" {
			text, err := cli.Stats()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Print(text)
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\set ") {
			fields := strings.Fields(trimmed)
			if len(fields) != 3 {
				fmt.Fprintln(os.Stderr, "usage: \\set KEY VALUE")
				continue
			}
			if err := cli.Set(map[string]string{fields[1]: fields[2]}); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\trace") {
			if on, err := parseTraceArg(trimmed); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				cli.Trace(on)
				fmt.Printf("tracing %s\n", onOff(on))
			}
			continue
		}
		if buf.Len() == 0 && trimmed == "\\queries" {
			res, err := cli.Queries()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Print(res.String())
			continue
		}
		if buf.Len() == 0 && trimmed == "\\workload" {
			text, err := cli.Workload()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Print(text)
			continue
		}
		if buf.Len() == 0 && trimmed == "\\indexes" {
			text, err := cli.Indexes()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Print(text)
			continue
		}
		if buf.Len() == 0 && trimmed == "\\alerts" {
			text, err := cli.Alerts()
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				continue
			}
			fmt.Print(text)
			continue
		}
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\tune") {
			arg := strings.TrimSpace(strings.TrimPrefix(trimmed, "\\tune"))
			if arg == "" {
				text, err := cli.Tuner()
				if err != nil {
					fmt.Fprintf(os.Stderr, "error: %v\n", err)
					continue
				}
				fmt.Print(text)
				continue
			}
			stmt := map[string]string{
				"on": "ALTER TUNER START", "off": "ALTER TUNER STOP",
				"now": "ALTER TUNER NOW", "rollback": "ALTER TUNER ROLLBACK",
			}[arg]
			if stmt == "" {
				fmt.Fprintln(os.Stderr, "usage: \\tune [on|off|now|rollback]")
				continue
			}
			if err := runRemote(cli, stmt); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "sql> "
			if err := runRemote(cli, stmt); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		} else if buf.Len() > 0 {
			prompt = "...> "
		}
	}
	return nil
}

// runRemote executes one statement over the wire and prints the result.
func runRemote(cli *server.Client, stmt string) error {
	res, err := cli.Query(stmt)
	if err != nil {
		return err
	}
	s := res.String()
	fmt.Print(s)
	if !strings.HasSuffix(s, "\n") {
		fmt.Println()
	}
	if res.TraceID != 0 {
		fmt.Printf("-- %s (trace %d)\n", res.Duration.Round(time.Microsecond), res.TraceID)
	} else {
		fmt.Printf("-- %s\n", res.Duration.Round(time.Microsecond))
	}
	return nil
}

func runStatement(eng *patchindex.Engine, stmt string, trace bool) error {
	res, err := eng.ExecWith(stmt, patchindex.ExecOptions{Trace: trace})
	if err != nil {
		return err
	}
	s := res.String()
	fmt.Print(s)
	if !strings.HasSuffix(s, "\n") {
		fmt.Println()
	}
	if res.TraceID != 0 {
		fmt.Printf("-- %s (trace %d)\n", res.Duration.Round(time.Microsecond), res.TraceID)
	} else {
		fmt.Printf("-- %s\n", res.Duration.Round(time.Microsecond))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "patchcli: %v\n", err)
	os.Exit(1)
}

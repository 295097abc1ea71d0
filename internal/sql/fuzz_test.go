package sql

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse and Fingerprint, which the server
// hands statements straight from the wire: both must return (never panic),
// a rejected statement must carry the "sql:" error prefix, and whitespace
// around a statement must not change its fingerprint. The seeds are the
// statements of parser_test.go.
func FuzzParse(f *testing.F) {
	for _, q := range []string{
		"SELECT a, b FROM t WHERE x >= 1.5 AND y <> 'it''s'",
		"SELECT 1 -- trailing comment\n, 2",
		"SELECT DISTINCT a, COUNT(*) AS n FROM t1 x JOIN t2 ON x.k = t2.k WHERE a > 5 AND b IS NOT NULL GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC LIMIT 10;",
		"SELECT * FROM t",
		"SELECT COUNT(DISTINCT c), SUM(x), MIN(y), MAX(z), COUNT(*) FROM t",
		"SELECT a FROM t WHERE NOT (a + 1) * 2 >= b % 3 OR c = DATE '2020-01-02'",
		"SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3",
		"SELECT a FROM t WHERE x = 1 + 2 * 3",
		"SELECT a FROM t WHERE a > -5 AND b < -1.5",
		"SELECT a FROM t WHERE flag = TRUE OR other = FALSE",
		"SELECT a FROM t WHERE a IS NULL AND b IS NOT NULL",
		"CREATE TABLE t (a BIGINT, b VARCHAR, c DOUBLE, d BOOLEAN, e DATE) PARTITIONS 8 SORTKEY a",
		"CREATE PATCHINDEX ON t(c) SORTED DESC THRESHOLD 0.25 KIND BITMAP FORCE",
		"CREATE PATCHINDEX ON t(c) UNIQUE",
		"DROP TABLE t",
		"DROP PATCHINDEX ON t(c)",
		"SHOW TABLES",
		"SHOW PATCHINDEXES",
		"SHOW QUERIES",
		"SHOW WORKLOAD;",
		"SHOW ALERTS",
		"SHOW TIMESERIES FOR index.emp.s.nsc.patch_ratio",
		"SHOW TIMESERIES FOR table.emp.zone_stale_rows",
		"SHOW TIMESERIES FOR 'hist.query_nanos.p99'",
		"INSERT INTO t VALUES (1, 'a', NULL), (2, 'b', 3.5)",
		"EXPLAIN SELECT a FROM t",
		"SELECT 'unterminated",
		"SELECT COUNT( FROM t",
		"SELECT a FROM t;;",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if _, err := Parse(q); err != nil && !strings.HasPrefix(err.Error(), "sql:") {
			t.Fatalf("Parse(%q) error lacks the sql: prefix: %v", q, err)
		}
		id, norm := Fingerprint(q)
		if id2, norm2 := Fingerprint(" " + q + "\n"); id2 != id {
			t.Fatalf("surrounding whitespace changed the fingerprint of %q: %q vs %q", q, norm, norm2)
		}
	})
}

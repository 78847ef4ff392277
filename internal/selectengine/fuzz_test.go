package selectengine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pushdowndb/internal/sqlparse"
)

// FuzzExecute runs a statement the fuzzer writes over an object it writes.
// Execute may refuse either, but must not panic, and a response must be its
// body: exactly Stats.RowsReturned rows of len(Columns) cells (bodyRows), whose
// text plus one separator each adds up to Stats.BytesReturned. A statement
// that parses runs twice, as text and as the request NewRequest builds from
// its statement, and must answer — or fail — alike; one that does not parse
// fails as text.
func FuzzExecute(f *testing.F) {
	f.Add("SELECT a FROM S3Object", []byte("a\n\nx\n"), true) // an empty cell is an empty line, and a row
	f.Add("SELECT * FROM S3Object", []byte("a,b\n\",\",\"\"\"\"\n\"x\ny\",\"\r\"\n"), true)
	f.Add("SELECT a FROM S3Object WHERE a = 'none'", []byte("a\n1\n2\n"), true)
	f.Add("SELECT * FROM S3Object LIMIT 2", []byte("1,2\n3,4\n5,6\n"), false)
	f.Add("SELECT g, COUNT(*), MIN(v) FROM S3Object GROUP BY g", []byte("g,v\nx,1\ny,\"2,5\"\nx,\n"), true)
	f.Fuzz(func(t *testing.T, sql string, data []byte, header bool) {
		caps := Capabilities{AllowGroupBy: true, AllowBloomContains: true}
		res, err := Execute(data, Request{SQL: sql, HasHeader: header, Capabilities: caps})
		stmt, perr := sqlparse.Parse(sql)
		if perr != nil {
			if err == nil {
				t.Fatalf("%q does not parse (%v) but runs as text", sql, perr)
			}
			return
		}
		cres, cerr := Execute(data, NewRequest(stmt, header, caps))
		if fmt.Sprint(err) != fmt.Sprint(cerr) {
			t.Fatalf("%q as text fails with %v, from its statement with %v", sql, err, cerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(res.Columns, cres.Columns) || !bytes.Equal(res.Body, cres.Body) || res.Stats != cres.Stats {
			t.Fatalf("%q answers %q %q %+v as text, %q %q %+v from its statement", sql,
				res.Columns, res.Body, res.Stats, cres.Columns, cres.Body, cres.Stats)
		}
		rows, err := bodyRows(res)
		if err != nil {
			t.Fatalf("the body %q does not decode to its %d rows of %q: %v", res.Body, res.Stats.RowsReturned, res.Columns, err)
		}
		var returned int64
		for _, r := range rows {
			for _, cell := range r {
				returned += int64(len(cell)) + 1
			}
		}
		if returned != res.Stats.BytesReturned {
			t.Fatalf("the body %q holds %d bytes of cells and separators, its stats say %d", res.Body, returned, res.Stats.BytesReturned)
		}
	})
}

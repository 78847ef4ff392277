// Command s3server serves the simulated S3 service (ranged GETs, the
// multi-range extension, and S3 Select) over HTTP. With -state its objects
// live in that directory, <state>/<bucket>/<key> — the layout the localfs
// backend reads — so an object is on disk when its PUT returns and a
// restart serves what is there; without it they live in memory. CSV files
// in -dir are loaded as tables named after the file.
//
//	s3server -addr :9000 -bucket tpch -dir ./data -state ./objects
//
// Then, for example:
//
//	curl -s -X POST 'http://localhost:9000/tpch/customer/part0000.csv?select' \
//	  -d '{"sql":"SELECT c_name FROM S3Object WHERE c_acctbal <= -950","has_header":true}'
//
// The server is self-describing: GET /?describe returns the select
// capabilities it executes (enable the Section-X extensions with
// -allow-groupby / -allow-bloom) and the cost profile it advertises to
// planners. Failed operations carry a structured error kind in the
// X-Pushdowndb-Error-Kind header (not_found, invalid_range, bad_request,
// unsupported, internal), which the s3http client folds back into
// *s3api.Error values.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"pushdowndb/internal/cloudsim"
	"pushdowndb/internal/engine"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3http"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":9000", "listen address")
		bucket      = flag.String("bucket", "data", "bucket name for loaded files")
		dir         = flag.String("dir", "", "directory of CSV files to load as tables")
		state       = flag.String("state", "", "directory the objects live in, as <state>/<bucket>/<key> (default: in memory)")
		parts       = flag.Int("parts", 4, "partitions per loaded table")
		allowGB     = flag.Bool("allow-groupby", false, "execute and advertise the Suggestion-4 partial GROUP BY extension")
		allowBloom  = flag.Bool("allow-bloom", false, "execute and advertise the Suggestion-3 BLOOM_CONTAINS extension")
		crossRegion = flag.Bool("cross-region", false, "advertise the cross-region S3 cost profile instead of in-region")
	)
	flag.Parse()
	ctx := context.Background()

	profile := cloudsim.S3Profile()
	if *crossRegion {
		profile = cloudsim.CrossRegionS3Profile()
	}
	opts := []s3api.Option{
		s3api.WithCapabilities(selectengine.Capabilities{AllowGroupBy: *allowGB, AllowBloomContains: *allowBloom}),
		s3api.WithProfile(profile),
	}
	be := s3api.NewInProc(store.New(), opts...)
	if *state != "" {
		be = localfs.New(*state, opts...)
		fmt.Printf("objects live in %s\n", *state)
	}
	if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			fatal(err)
		}
		for _, ent := range entries {
			table, isCSV := strings.CutSuffix(ent.Name(), ".csv")
			if ent.IsDir() || !isCSV {
				continue
			}
			rows, err := engine.LoadCSVFile(ctx, be, *bucket, table, filepath.Join(*dir, ent.Name()), *parts)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("loaded %s/%s (%d rows, %d partitions)\n", *bucket, table, rows, *parts)
		}
	}

	fmt.Printf("simulated S3 listening on %s (profile %s; see GET /?describe)\n", *addr, profile.Name)
	if err := http.ListenAndServe(*addr, s3http.NewServer(be)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s3server:", err)
	os.Exit(1)
}

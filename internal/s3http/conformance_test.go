package s3http_test

import (
	"net/http/httptest"
	"testing"

	"pushdowndb/internal/s3api"
	"pushdowndb/internal/s3api/conformancetest"
	"pushdowndb/internal/s3http"
	"pushdowndb/internal/store"
)

func TestHTTPClientConformance(t *testing.T) {
	conformancetest.Run(t, func(t *testing.T) conformancetest.Env {
		st := store.New()
		srv := httptest.NewServer(s3http.NewServer(s3api.NewInProc(st)))
		t.Cleanup(srv.Close)
		return conformancetest.Env{
			Backend: s3http.NewClient(srv.URL, srv.Client()),
			Put:     func(bucket, key string, data []byte) { st.Put(bucket, key, data) },
		}
	})
}

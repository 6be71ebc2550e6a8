package trace

import (
	"bytes"
	"os"
	"testing"
)

// FuzzImportSchedule fuzzes the replay trust boundary: mhsim
// -replay-schedule feeds ImportSchedule arbitrary user-supplied files.
// Importing and validating must never panic, and every schedule
// Validate accepts must survive Export -> ImportSchedule byte-identically.
func FuzzImportSchedule(f *testing.F) {
	recorded, err := os.ReadFile("testdata/recorded_schedule.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded)
	var buf bytes.Buffer
	if err := small().Export(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A host count far beyond the input's size: validation state must
	// scale with the events, not with the claimed topology.
	f.Add([]byte(`{"hosts":1099511627776,"stations":2,"protocol":"QBC","events":[{"seq":0,"tick":1,"kind":"disconnect","host":1099511627775,"peer":-1,"from":1,"to":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ImportSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("imported schedule fails re-validation: %v", err)
		}
		var first bytes.Buffer
		if err := s.Export(&first); err != nil {
			t.Fatalf("export: %v", err)
		}
		back, err := ImportSchedule(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("exported schedule does not re-import: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := back.Export(&second); err != nil {
			t.Fatalf("re-export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export -> import -> export is not byte-identical:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

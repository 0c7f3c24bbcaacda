package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// TestAppShorthandIsOneEntryList pins Decode's rewrite: "app": K is the
// one-entry list "apps": [{K: {}}], and a spec with neither is camera.
func TestAppShorthandIsOneEntryList(t *testing.T) {
	for _, c := range []struct{ short, long string }{
		{`{"app": "camera"}`, `{"apps": [{"camera": {}}]}`},
		{`{"app": "socialnet"}`, `{"apps": [{"socialnet": {}}]}`},
		{`{"app": "videoconf"}`, `{"apps": [{"videoconf": {}}]}`},
		{`{}`, `{"apps": [{"camera": {}}]}`},
	} {
		short, err := Decode(strings.NewReader(c.short))
		if err != nil {
			t.Fatalf("%s: %v", c.short, err)
		}
		long, err := Decode(strings.NewReader(c.long))
		if err != nil {
			t.Fatalf("%s: %v", c.long, err)
		}
		if !reflect.DeepEqual(short, long) {
			t.Errorf("%s decodes to %+v, %s to %+v", c.short, short, c.long, long)
		}
	}
}

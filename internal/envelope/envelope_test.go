package envelope

import "testing"

func TestKindValid(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("Kinds() entry %q not Valid", k)
		}
	}
	for _, k := range []Kind{"", "sweeps", "Results"} {
		if k.Valid() {
			t.Errorf("Kind(%q).Valid() = true, want false", k)
		}
	}
}

package main

import (
	"reflect"
	"testing"
)

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{" , ,", nil},
		{"fig4", []string{"fig4"}},
		{"fig4,fig9", []string{"fig4", "fig9"}},
		{" fig4 , ,fig9 ,", []string{"fig4", "fig9"}},
		{"all", []string{"all"}}, // "all" is each caller's to interpret
	} {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSplitSeeds(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []uint64
	}{
		{"", nil},
		{" , ", nil},
		{"7", []uint64{7}},
		{"1, 2,,3", []uint64{1, 2, 3}},
		{"18446744073709551615", []uint64{18446744073709551615}},
	} {
		got, err := splitSeeds(tc.in)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitSeeds(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"x", "1,-2", "18446744073709551616", "1.5"} {
		if got, err := splitSeeds(bad); err == nil {
			t.Errorf("splitSeeds(%q) = %v, want an error", bad, got)
		}
	}
}

func TestSelectIDs(t *testing.T) {
	all, err := selectIDs("all")
	if err != nil || len(all) == 0 {
		t.Fatalf(`selectIDs("all") = %v, %v`, all, err)
	}
	if got, err := selectIDs(" fig9 ,fig4,"); err != nil || !reflect.DeepEqual(got, []string{"fig9", "fig4"}) {
		t.Errorf("selectIDs keeps the order given: %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "bogus"} {
		if _, err := selectIDs(bad); err == nil {
			t.Errorf("selectIDs(%q) accepted", bad)
		}
	}
}

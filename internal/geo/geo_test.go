package geo

import "testing"

func TestDefaultCountriesContainPaperCountries(t *testing.T) {
	// Every country named in the paper's Table 2 / Table 5 must exist.
	paper := []Country{
		"HK", "US", "GB", "CN", "RU", "ZA", "AR", "IT", "AT", "VE",
		"BD", "EC", "AM", "EE", "AL", "BF", "LY", "MN", "MW", "SD",
		"KR", "PL", "AU", "PT", "CO", "PE", "ZW", "TN", "SN", "GU",
		"FR", "NL", "RO", "BO", "GR", "JP", "BR", "DE", "KZ", "UA",
	}
	r := NewRegistry(DefaultCountries())
	for _, c := range paper {
		if _, ok := r.Info(c); !ok {
			t.Errorf("paper country %s missing from DefaultCountries", c)
		}
	}
}

func TestDefaultCountryWeights(t *testing.T) {
	r := NewRegistry(DefaultCountries())
	total := r.TotalWeight()
	if total <= 0.5 || total > 1.2 {
		t.Errorf("total weight %v outside sane range", total)
	}
	us, _ := r.Info("US")
	mw, _ := r.Info("MW")
	if us.Weight <= mw.Weight {
		t.Error("US should vastly outweigh Malawi")
	}
	for _, c := range r.Countries() {
		if c.Weight <= 0 {
			t.Errorf("country %s has non-positive weight", c.Code)
		}
	}
}

func TestCountriesSortedAndCopied(t *testing.T) {
	r := NewRegistry(DefaultCountries())
	cs := r.Countries()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Code >= cs[i].Code {
			t.Fatal("Countries() not sorted by code")
		}
	}
	cs[0].Weight = 99
	if r.Countries()[0].Weight == 99 {
		t.Error("Countries() exposes internal slice")
	}
}

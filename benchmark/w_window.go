package main

import (
	"spatialtf"
)

func setupWindowLookup(rc runConfig) (*instance, error) {
	nStars, nCounties, listLen, checkOneIn, stmts := 25000, 3230, 20000, 100, 540000
	if rc.tiny {
		nStars, nCounties, listLen, checkOneIn, stmts = 800, 100, 300, 5, 600
	}
	db := spatialtf.Open()
	rc.tr.attachDB(db)
	stars, err := loadIndexed(db, "stars", spatialtf.Stars(nStars, rc.seed))
	if err != nil {
		return nil, err
	}
	counties, err := loadIndexed(db, "counties", spatialtf.Counties(nCounties, rc.seed+1))
	if err != nil {
		return nil, err
	}
	ln, err := serveDB(db)
	if err != nil {
		return nil, err
	}
	ref := newReference(stars, counties)
	return &instance{
		addr: ln.addr,
		plan: clientPlan{
			src:  cycle(lookupOps(newWindowGen(rc.seed*1000, "stars", "counties"), listLen, checkOneIn)),
			warm: listLen / 50,
		},
		stmts: stmts,
		sizes: map[string]any{"stars": nStars, "counties": nCounties,
			"op_list": listLen, "checked_one_in": checkOneIn},
		verify: ref.check,
		ladder: func(tr *tracer, rc runConfig) error {
			return lookupLadder(tr, db, ln.addr, []string{"stars", "counties"}, rc)
		},
		close: ln.shutdown,
	}, nil
}

// lookupOps is a seeded list of short statements over stars and
// counties: 70 % sdo_relate windows (primary), 20 % sdo_within_distance
// and 10 % sdo_nn (secondary). One in checkOneIn is checked against a
// full scan.
func lookupOps(gen *windowGen, n, checkOneIn int) []op {
	rng := gen.rng
	ops := make([]op, n)
	for i := range ops {
		check := rng.Intn(checkOneIn) == 0
		switch r := rng.Intn(10); {
		case r < 7:
			ops[i] = gen.relate(check, primary)
		case r < 9:
			ops[i] = gen.within(check, secondary)
		default:
			ops[i] = gen.nearest(check, secondary)
		}
	}
	return ops
}

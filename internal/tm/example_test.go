package tm_test

import (
	"fmt"

	"repro/internal/tm"
)

// A multi-variable update with no locks in sight — the programmability
// pitch of the paper's §2.4.
func ExampleAtomic() {
	checking := tm.NewVar(100)
	savings := tm.NewVar(0)
	err := tm.Atomic(func(tx *tm.Txn) error {
		c, err := tx.Read(checking)
		if err != nil {
			return err
		}
		s, err := tx.Read(savings)
		if err != nil {
			return err
		}
		tx.Write(checking, c-40)
		tx.Write(savings, s+40)
		return nil
	}, nil, 0)
	// Reading both back in one transaction sees a consistent snapshot.
	var c, s int64
	_ = tm.Atomic(func(tx *tm.Txn) (rerr error) {
		if c, rerr = tx.Read(checking); rerr != nil {
			return rerr
		}
		s, rerr = tx.Read(savings)
		return rerr
	}, nil, 0)
	fmt.Println(err, c, s)
	// Output: <nil> 60 40
}

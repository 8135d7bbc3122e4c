package main

// chQueries are the 17 analytic queries of the CH suite (TPC-H-style
// queries over the TPC-C schema), copied so that the benchmark's
// inputs do not change when the program's own copy does.
var chQueries = [17]string{
	// Q1 pricing summary: scan → filter → group-aggregate.
	`SELECT ol_number, SUM(ol_quantity) AS sum_qty, SUM(ol_amount) AS sum_amount,
	        AVG(ol_quantity) AS avg_qty, AVG(ol_amount) AS avg_amount, COUNT(*) AS cnt
	 FROM order_line WHERE ol_delivery_d > 0 GROUP BY ol_number ORDER BY ol_number`,
	// Q2 stock pressure.
	`SELECT s_i_id, SUM(s_order_cnt) AS ordered FROM stock
	 GROUP BY s_i_id ORDER BY ordered DESC LIMIT 10`,
	// Q3 unshipped value: join → group → top-k.
	`SELECT o_w_id, o_d_id, o_id, SUM(ol_amount) AS revenue
	 FROM orders JOIN order_line ON o_w_id = ol_w_id AND o_d_id = ol_d_id AND o_id = ol_o_id
	 WHERE o_carrier_id = 0 GROUP BY o_w_id, o_d_id, o_id ORDER BY revenue DESC LIMIT 10`,
	// Q4 order sizes.
	`SELECT o_ol_cnt, COUNT(*) AS n FROM orders GROUP BY o_ol_cnt ORDER BY o_ol_cnt`,
	// Q5 revenue by state: three-way join.
	`SELECT c_state, SUM(ol_amount) AS revenue
	 FROM customer
	 JOIN orders ON c_w_id = o_w_id AND c_d_id = o_d_id AND c_id = o_c_id
	 JOIN order_line ON o_w_id = ol_w_id AND o_d_id = ol_d_id AND o_id = ol_o_id
	 GROUP BY c_state ORDER BY revenue DESC`,
	// Q6 revenue forecast: filtered scalar aggregate.
	`SELECT SUM(ol_amount) AS revenue FROM order_line WHERE ol_quantity >= 2 AND ol_quantity <= 8`,
	// Q7 high-value customers.
	`SELECT c_last, c_balance FROM customer WHERE c_balance > 0 ORDER BY c_balance DESC LIMIT 10`,
	// Q8 warehouse activity.
	`SELECT w_state, COUNT(*) AS orders FROM warehouse JOIN orders ON w_id = o_w_id
	 GROUP BY w_state ORDER BY orders DESC`,
	// Q9 credit mix.
	`SELECT c_credit, COUNT(*) AS n, AVG(c_balance) AS avg_bal, SUM(c_ytd_payment) AS ytd
	 FROM customer GROUP BY c_credit ORDER BY c_credit`,
	// Q10 deliveries by carrier.
	`SELECT o_carrier_id, COUNT(*) AS n FROM orders WHERE o_carrier_id > 0
	 GROUP BY o_carrier_id ORDER BY n DESC`,
	// Q11 promo items.
	`SELECT i_id, i_name, i_price FROM item WHERE i_data LIKE 'ORIG%' ORDER BY i_price DESC LIMIT 20`,
	// Q12 item revenue.
	`SELECT ol_i_id, SUM(ol_amount) AS revenue, SUM(ol_quantity) AS qty
	 FROM order_line JOIN item ON ol_i_id = i_id WHERE i_price > 50
	 GROUP BY ol_i_id ORDER BY revenue DESC LIMIT 10`,
	// Q13 shipped customer names: join → DISTINCT → sort.
	`SELECT DISTINCT c_last, c_state
	 FROM customer JOIN orders ON c_w_id = o_w_id AND c_d_id = o_d_id AND c_id = o_c_id
	 WHERE o_carrier_id > 0 ORDER BY c_last LIMIT 50`,
	// Q14 state/item revenue: four-way join, row-heavy table first.
	`SELECT c_state, COUNT(*) AS n, SUM(ol_quantity) AS qty
	 FROM order_line
	 JOIN orders ON ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
	 JOIN customer ON o_w_id = c_w_id AND o_d_id = c_d_id AND o_c_id = c_id
	 JOIN item ON ol_i_id = i_id
	 WHERE i_price > 80 GROUP BY c_state ORDER BY qty DESC`,
	// Q15 supplier stock drain.
	`SELECT s_i_id, SUM(ol_quantity) AS moved
	 FROM order_line
	 JOIN stock ON ol_supply_w_id = s_w_id AND ol_i_id = s_i_id
	 JOIN item ON ol_i_id = i_id
	 WHERE i_price <= 20 AND s_quantity < 50 GROUP BY s_i_id ORDER BY moved DESC LIMIT 10`,
	// Q16 undelivered lines per district of warehouse 1.
	`SELECT d_name, COUNT(*) AS pending
	 FROM order_line
	 JOIN orders ON ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
	 JOIN district ON o_w_id = d_w_id AND o_d_id = d_id
	 WHERE o_carrier_id = 0 AND d_w_id = 1 GROUP BY d_name ORDER BY pending DESC`,
	// Q17 delivered large orders: anti-join through LEFT JOIN … IS NULL.
	`SELECT o_ol_cnt, COUNT(*) AS n
	 FROM orders LEFT JOIN new_order ON o_w_id = no_w_id AND o_d_id = no_d_id AND o_id = no_o_id
	 WHERE no_o_id IS NULL AND o_ol_cnt >= 8 GROUP BY o_ol_cnt ORDER BY o_ol_cnt`,
}

// OLTP statements. BEGIN and COMMIT cannot be prepared; everything
// else but adhocReadSQL is.
const (
	readSQL        = `SELECT c_balance FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?`
	adhocReadSQL   = `SELECT c_balance FROM customer WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d`
	payDistrictSQL = `UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?`
	payCustomerSQL = `UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?,
	                  c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?`
	payHistorySQL  = `INSERT INTO history VALUES (?, ?, ?, ?, ?, ?)`
	nextOrderSQL   = `SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?`
	bumpOrderSQL   = `UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = ? AND d_id = ?`
	insOrderSQL    = `INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?)`
	insNewOrderSQL = `INSERT INTO new_order VALUES (?, ?, ?)`
	getStockSQL    = `SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?`
	updStockSQL    = `UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1
	                  WHERE s_w_id = ? AND s_i_id = ?`
	insLineSQL     = `INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)`
	orderStatusSQL = `SELECT ol_number, ol_i_id, ol_quantity, ol_amount FROM order_line
	                  WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?`
)

// ingestBatch is the number of readings per INSERT statement.
const ingestBatch = 50

// dashWindowUS is the dashboard's look-back in stream time (≈20k rows).
const dashWindowUS = 10_000_000

const dashSQL = `SELECT host, COUNT(*), AVG(value), MAX(value) FROM metrics
                 WHERE metric = 'cpu' AND ts >= ? GROUP BY host`

// ingestSQL is the 50-row insert with 200 placeholders.
var ingestSQL = func() string {
	s := "INSERT INTO metrics VALUES "
	for i := 0; i < ingestBatch; i++ {
		if i > 0 {
			s += ", "
		}
		s += "(?, ?, ?, ?)"
	}
	return s
}()

//! Every SELECT shape the executor supports returns exactly the bytes it
//! returned when this hash was recorded: grouping, HAVING, every kind of
//! ORDER BY key, DISTINCT, LIMIT/OFFSET windows, joins and global
//! aggregates. A refactor of the SELECT pipeline must keep the constant.

use amdb_sql::{BinlogFormat, Engine, Session, Value};

/// FNV-1a over `Debug` of `(columns, rows, rows_examined)` of every query.
const PINNED: u64 = 4_239_072_706_045_307_163;

const SETUP: &str = "
CREATE TABLE items (id INT PRIMARY KEY, title TEXT, subject INT, price DOUBLE);
CREATE INDEX idx_items_subject ON items (subject);
CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, item_id INT, quantity INT);
INSERT INTO items VALUES
  (1, 'rust', 1, 30.0),
  (2, 'go', 1, 25.5),
  (3, 'sql', 2, 40.0),
  (4, NULL, 2, NULL),
  (5, 'c', 3, 12.0),
  (6, 'ada', 1, 30.0),
  (7, 'lisp', NULL, 8.25),
  (8, 'ml', 3, 12.0);
INSERT INTO orders VALUES
  (1, 10, 1, 2),
  (2, 11, 1, 1),
  (3, 10, 3, 5),
  (4, 12, 2, NULL),
  (5, 11, 3, 1),
  (6, 10, 1, 3),
  (7, 13, 5, 1),
  (8, 12, 9, 4),
  (9, 11, NULL, 2),
  (10, 10, 6, 1),
  (11, 13, 6, 1),
  (12, 12, 3, 2),
  (13, 10, 8, 7),
  (14, 11, 8, 7)
";

const QUERIES: &[(&str, &[Value])] = &[
    // Plain SELECTs.
    ("SELECT * FROM items", &[]),
    (
        "SELECT id, title FROM items WHERE subject = 1 ORDER BY title",
        &[],
    ),
    (
        "SELECT id, price * 2 AS dbl FROM items ORDER BY dbl DESC, id",
        &[],
    ),
    ("SELECT id FROM items ORDER BY price DESC", &[]),
    (
        "SELECT id, title FROM items ORDER BY id LIMIT 3 OFFSET 2",
        &[],
    ),
    ("SELECT id FROM items ORDER BY id LIMIT 5 OFFSET 50", &[]),
    (
        "SELECT DISTINCT subject FROM items ORDER BY subject DESC",
        &[],
    ),
    ("SELECT DISTINCT price FROM items LIMIT 3 OFFSET 1", &[]),
    // GROUP BY on one key, two keys and an expression.
    ("SELECT subject, COUNT(*) FROM items GROUP BY subject", &[]),
    (
        "SELECT customer_id, item_id, SUM(quantity) FROM orders \
         GROUP BY customer_id, item_id",
        &[],
    ),
    (
        "SELECT id % 3 AS m, COUNT(*), MAX(title), MIN(price) FROM items GROUP BY id % 3",
        &[],
    ),
    // HAVING on an aggregate the select list does not show.
    (
        "SELECT customer_id FROM orders GROUP BY customer_id HAVING SUM(quantity) > 8",
        &[],
    ),
    (
        "SELECT item_id, COUNT(*) FROM orders GROUP BY item_id \
         HAVING COUNT(*) >= 2 AND MAX(quantity) < 7",
        &[],
    ),
    // ORDER BY an output alias, a bare aggregate, an expression over
    // aggregates, a non-grouped column, and DESC with ties.
    (
        "SELECT item_id, COUNT(*) AS n FROM orders GROUP BY item_id ORDER BY n DESC, item_id",
        &[],
    ),
    (
        "SELECT item_id FROM orders GROUP BY item_id ORDER BY COUNT(*) DESC",
        &[],
    ),
    (
        "SELECT item_id, SUM(quantity) FROM orders GROUP BY item_id \
         ORDER BY SUM(quantity) * 2 - COUNT(*), item_id DESC",
        &[],
    ),
    (
        "SELECT subject, COUNT(*) FROM items GROUP BY subject ORDER BY price",
        &[],
    ),
    (
        "SELECT subject, COUNT(*) AS c FROM items GROUP BY subject ORDER BY c DESC",
        &[],
    ),
    (
        "SELECT subject, AVG(price) AS a FROM items GROUP BY subject ORDER BY a",
        &[],
    ),
    // DISTINCT with aggregates.
    ("SELECT DISTINCT COUNT(*) FROM orders GROUP BY item_id", &[]),
    (
        "SELECT DISTINCT COUNT(*) AS c FROM orders GROUP BY customer_id ORDER BY c DESC",
        &[],
    ),
    // LIMIT/OFFSET over groups, inside and past the end.
    (
        "SELECT item_id, SUM(quantity) AS q FROM orders GROUP BY item_id \
         ORDER BY q DESC LIMIT 2 OFFSET 1",
        &[],
    ),
    (
        "SELECT item_id FROM orders GROUP BY item_id LIMIT 3 OFFSET 40",
        &[],
    ),
    // Joins.
    (
        "SELECT i.id, COUNT(o.id), SUM(o.quantity) FROM items i \
         LEFT JOIN orders o ON o.item_id = i.id GROUP BY i.id",
        &[],
    ),
    (
        "SELECT o.id, i.title FROM orders o INNER JOIN items i ON o.item_id = i.id \
         WHERE o.customer_id = ? ORDER BY o.id DESC LIMIT 5",
        &[Value::Int(10)],
    ),
    // Global aggregates, over rows and over none.
    (
        "SELECT COUNT(*), COUNT(price), SUM(price), AVG(price), MIN(title), MAX(title) FROM items",
        &[],
    ),
    (
        "SELECT COUNT(*), SUM(price), AVG(price), MIN(title), MAX(title) FROM items WHERE id > 100",
        &[],
    ),
    (
        "SELECT COUNT(*) FROM orders WHERE item_id = ?",
        &[Value::Int(3)],
    ),
    ("SELECT SUM(quantity) + 1, COUNT(*) * 2 FROM orders", &[]),
    ("SELECT COUNT(*)", &[]),
    // Web10's best_sellers, verbatim.
    (
        "SELECT i.id, i.title, COUNT(*) AS sold FROM orders o \
         INNER JOIN items i ON o.item_id = i.id \
         WHERE i.subject = ? GROUP BY o.item_id ORDER BY sold DESC LIMIT 10",
        &[Value::Int(1)],
    ),
    (
        "SELECT i.id, i.title, COUNT(*) AS sold FROM orders o \
         INNER JOIN items i ON o.item_id = i.id \
         WHERE i.subject = ? GROUP BY o.item_id ORDER BY sold DESC LIMIT 10",
        &[Value::Int(3)],
    ),
];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn select_results_are_pinned() {
    let mut e = Engine::new_master(BinlogFormat::Statement);
    let mut s = Session::new();
    e.execute_batch(&mut s, SETUP).expect("setup");
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut seen = String::new();
    for (sql, params) in QUERIES {
        let r = e
            .execute(&mut s, sql, params)
            .unwrap_or_else(|err| panic!("{sql}: {err}"));
        let line = format!("{:?}", (&r.columns, &r.rows, r.rows_examined));
        fnv1a(&mut hash, line.as_bytes());
        seen.push_str(&format!("{sql}\n  {line}\n"));
    }
    assert_eq!(hash, PINNED, "results moved:\n{seen}");
}

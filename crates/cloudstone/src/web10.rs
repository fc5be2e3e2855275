//! A Web 1.0 contrast workload (TPC-W-flavoured bookstore).
//!
//! §III-A argues Cloudstone fits the study because Web 2.0 applications
//! write more ("contents ... depend on user contributions") than the
//! Web 1.0 applications TPC-W and RUBiS represent. This module provides the
//! contrast case: a read-mostly online bookstore — catalog browsing,
//! searching, product pages, and an occasional purchase — so experiments can
//! show how far master-slave scale-out goes when the write fraction is
//! small (much further: the master ceiling moves out by roughly the ratio
//! of the write fractions).

use crate::ops::{OpClass, Operation};
use amdb_sim::Rng;
use amdb_sql::{Engine, Session, SqlError, Value};

/// DDL for the bookstore schema (alongside, not replacing, the events
/// calendar — the two workloads can target the same replicated tier).
pub const WEB10_SCHEMA: &str = "
CREATE TABLE items (
    id INT PRIMARY KEY,
    title VARCHAR(128) NOT NULL,
    author VARCHAR(64) NOT NULL,
    subject INT NOT NULL,
    price DOUBLE NOT NULL,
    stock INT NOT NULL
);
CREATE INDEX idx_items_subject ON items (subject);

CREATE TABLE orders (
    id INT PRIMARY KEY,
    customer_id INT NOT NULL,
    item_id INT NOT NULL,
    quantity INT NOT NULL,
    created_at TIMESTAMP NOT NULL
);
CREATE INDEX idx_orders_customer ON orders (customer_id);
CREATE INDEX idx_orders_item ON orders (item_id)
";

/// Number of subjects (categories) in the catalog.
pub const SUBJECTS: i64 = 24;

/// Load the bookstore catalog into an engine: `n_items` items plus one
/// seed order per 10 items.
pub fn load_web10(
    engine: &mut Engine,
    session: &mut Session,
    n_items: u32,
    rng: &mut Rng,
) -> Result<(), SqlError> {
    engine.execute_batch(session, WEB10_SCHEMA)?;
    let mut rows = Vec::with_capacity(500);
    for id in 1..=n_items as i64 {
        let subject = rng.int_range(0, SUBJECTS - 1);
        let price = rng.int_range(5, 80) as f64 + 0.99;
        let stock = rng.int_range(0, 500);
        rows.push(format!(
            "({id}, 'book {id}', 'author {}', {subject}, {price}, {stock})",
            rng.int_range(1, 500)
        ));
        if rows.len() == 500 {
            let sql = format!(
                "INSERT INTO items (id, title, author, subject, price, stock) VALUES {}",
                rows.join(", ")
            );
            engine.execute(session, &sql, &[])?;
            rows.clear();
        }
    }
    if !rows.is_empty() {
        let sql = format!(
            "INSERT INTO items (id, title, author, subject, price, stock) VALUES {}",
            rows.join(", ")
        );
        engine.execute(session, &sql, &[])?;
    }
    let mut orders = Vec::new();
    for oid in 1..=(n_items as i64 / 10).max(1) {
        let item = rng.int_range(1, n_items as i64);
        let cust = rng.int_range(1, 10_000);
        orders.push(format!("({oid}, {cust}, {item}, 1, 0)"));
        if orders.len() == 500 {
            let sql = format!(
                "INSERT INTO orders (id, customer_id, item_id, quantity, created_at) VALUES {}",
                orders.join(", ")
            );
            engine.execute(session, &sql, &[])?;
            orders.clear();
        }
    }
    if !orders.is_empty() {
        let sql = format!(
            "INSERT INTO orders (id, customer_id, item_id, quantity, created_at) VALUES {}",
            orders.join(", ")
        );
        engine.execute(session, &sql, &[])?;
    }
    Ok(())
}

/// Generates the Web 1.0 mix: 95 % reads (browse / search / product page /
/// order status), 5 % writes (buy).
#[derive(Debug, Clone)]
pub struct Web10Generator {
    n_items: i64,
    next_order: i64,
    rng: Rng,
}

impl Web10Generator {
    /// Generator over a catalog of `n_items` items; order ids continue after
    /// the seeded ones.
    pub fn new(n_items: u32, rng: Rng) -> Self {
        Self {
            n_items: n_items as i64,
            next_order: (n_items as i64 / 10).max(1) + 1,
            rng,
        }
    }

    /// The write fraction of this mix.
    pub const WRITE_FRACTION: f64 = 0.05;

    /// Draw one operation.
    pub fn generate(&mut self) -> Operation {
        if self.rng.chance(Self::WRITE_FRACTION) {
            self.op_buy()
        } else {
            match self.rng.pick_weighted(&[0.35, 0.30, 0.25, 0.10]) {
                0 => self.op_browse_subject(),
                1 => self.op_product_page(),
                2 => self.op_best_sellers(),
                _ => self.op_order_status(),
            }
        }
    }

    fn op_browse_subject(&mut self) -> Operation {
        let subject = self.rng.int_range(0, SUBJECTS - 1);
        Operation {
            name: "browse_subject",
            class: OpClass::Read,
            statements: vec![(
                "SELECT id, title, price FROM items WHERE subject = ? \
                 ORDER BY title LIMIT 20"
                    .into(),
                vec![Value::Int(subject)],
            )],
        }
    }

    fn op_product_page(&mut self) -> Operation {
        let item = self.rng.int_range(1, self.n_items);
        Operation {
            name: "product_page",
            class: OpClass::Read,
            statements: vec![
                (
                    "SELECT title, author, price, stock FROM items WHERE id = ?".into(),
                    vec![Value::Int(item)],
                ),
                (
                    "SELECT COUNT(*) FROM orders WHERE item_id = ?".into(),
                    vec![Value::Int(item)],
                ),
            ],
        }
    }

    fn op_best_sellers(&mut self) -> Operation {
        let subject = self.rng.int_range(0, SUBJECTS - 1);
        Operation {
            name: "best_sellers",
            class: OpClass::Read,
            statements: vec![(
                "SELECT i.id, i.title, COUNT(*) AS sold FROM orders o \
                 INNER JOIN items i ON o.item_id = i.id \
                 WHERE i.subject = ? GROUP BY o.item_id ORDER BY sold DESC LIMIT 10"
                    .into(),
                vec![Value::Int(subject)],
            )],
        }
    }

    fn op_order_status(&mut self) -> Operation {
        let cust = self.rng.int_range(1, 10_000);
        Operation {
            name: "order_status",
            class: OpClass::Read,
            statements: vec![(
                "SELECT o.id, i.title, o.quantity FROM orders o \
                 INNER JOIN items i ON o.item_id = i.id \
                 WHERE o.customer_id = ? ORDER BY o.id DESC LIMIT 5"
                    .into(),
                vec![Value::Int(cust)],
            )],
        }
    }

    fn op_buy(&mut self) -> Operation {
        let oid = self.next_order;
        self.next_order += 1;
        let item = self.rng.int_range(1, self.n_items);
        let cust = self.rng.int_range(1, 10_000);
        let qty = self.rng.int_range(1, 3);
        Operation {
            name: "buy",
            class: OpClass::Write,
            statements: vec![
                (
                    "INSERT INTO orders (id, customer_id, item_id, quantity, created_at) \
                     VALUES (?, ?, ?, ?, NOW_MICROS())"
                        .into(),
                    vec![
                        Value::Int(oid),
                        Value::Int(cust),
                        Value::Int(item),
                        Value::Int(qty),
                    ],
                ),
                (
                    "UPDATE items SET stock = stock - ? WHERE id = ?".into(),
                    vec![Value::Int(qty), Value::Int(item)],
                ),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amdb_sql::BinlogFormat;

    fn setup() -> (Engine, Session, Web10Generator) {
        let mut engine = Engine::new_master(BinlogFormat::Statement);
        let mut session = Session::new();
        let mut rng = Rng::new(3);
        load_web10(&mut engine, &mut session, 500, &mut rng).expect("load");
        (engine, session, Web10Generator::new(500, rng.derive("ops")))
    }

    #[test]
    fn catalog_loads() {
        let (engine, _, _) = setup();
        assert_eq!(engine.table_rows("items"), Some(500));
        assert_eq!(engine.table_rows("orders"), Some(50));
    }

    #[test]
    fn all_ops_execute() {
        let (mut engine, mut session, mut gen) = setup();
        for i in 0..400 {
            let op = gen.generate();
            for (sql, params) in &op.statements {
                engine
                    .execute(&mut session, sql, params)
                    .unwrap_or_else(|e| panic!("op {i} ({}) failed: {e}\n{sql}", op.name));
            }
        }
    }

    #[test]
    fn mix_is_read_mostly() {
        let (_, _, mut gen) = setup();
        let n = 8_000;
        let writes = (0..n)
            .filter(|_| gen.generate().class == OpClass::Write)
            .count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn buys_change_stock_and_orders() {
        let (mut engine, mut session, mut gen) = setup();
        let orders_before = engine.table_rows("orders").unwrap();
        let mut bought = 0;
        while bought < 5 {
            let op = gen.generate();
            if op.class == OpClass::Write {
                bought += 1;
            }
            for (sql, params) in &op.statements {
                engine.execute(&mut session, sql, params).unwrap();
            }
        }
        assert_eq!(engine.table_rows("orders").unwrap(), orders_before + 5);
    }
}

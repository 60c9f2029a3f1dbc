//! Golden identity of the sandbox and the static rules.
//!
//! The digest below was recorded with the boxed-AST interpreter this
//! crate used to ship. It covers, for every distinct source of
//! `WorldConfig::small(77)`, of `gen::generate` (every behaviour) and
//! `gen::generate_benign` over three seeds, and of the hand-written
//! programs below (one per runtime error and mock path):
//!
//! * the static rule hits;
//! * the rendered trace at the default fuel (and, outside the world
//!   sources, at thirteen smaller fuels that cut runs mid-expression):
//!   outcome, steps, error text, and each effect's API and argument
//!   previews;
//! * the behaviour labels and the deduplicated API list.
//!
//! The lowered interpreter must reproduce it byte for byte.

use malgraph::detector::{dynamic::label_trace, rules::module_rule_hits};
use malgraph::minilang::gen::{generate, generate_benign, Behavior};
use malgraph::minilang::interp::{execute, InterpConfig};
use malgraph::minilang::lower::Program;
use malgraph::minilang::{parse, printer::print_module};
use malgraph::oss_types::Sha256;
use malgraph::registry_sim::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::fmt::Write;

const GOLDEN_SOURCES: usize = 880;
const GOLDEN_SHA256: &str = "c3e16268dd5e749a3c9ee6eec69dc9b3a358e6a3a8ef2ce08f039ed993617fe9";

/// Fuels the generated and hand-written sources also run at.
const FUEL_SWEEP: [u64; 13] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 377, 20_000];

/// Programs that reach every runtime error message and mock result.
const EDGE_SOURCES: &[&str] = &[
    r#"x = 3
x()
"#,
    r#"x = 1 / 0
"#,
    r#"x = 1 % 0
"#,
    r#"x = -'a'
"#,
    r#"x = 'a' - 1
"#,
    r#"x = [1][5]
"#,
    r#"x = [1][-1]
"#,
    r#"x = 'ab'[9]
"#,
    r#"x = 'ab'[-1]
"#,
    r#"x = 3[0]
"#,
    r#"x = 3
y = x.foo
"#,
    r#"def f(a):
    return a
f()
"#,
    r#"raise Boom('x')
"#,
    r#"raise 'plain'
"#,
    r#"import os
os.environ['K'] = 'v'
x = os.environ['K']
os.path.sep = 1
"#,
    r#"x = 5
x.foo = 1
"#,
    r#"x = 'some text'
x.foo = 1
"#,
    r#"import requests
r = requests.get('u')
r.status = 2
b = r.content
r.json()
"#,
    r#"s = 'héllo wörld'
for c in s:
    send(c)
"#,
    r#"d = {'a': 1, 'b': [1, 2]}
for k in d:
    probe(k, d[k])
probe(d['zz'])
"#,
    r#"x = 2 ** 70
y = 2 ** -1
z = 1.5 + 2
try:
    w = 3 < 4.0
except:
    send(x, y, z)
"#,
    r#"x = 'a' in ['a', 'b']
y = 'b' in 'abc'
z = 1 in {}
"#,
    r#"def g():
    if False:
        q = 1
    return q
q = 7
send(g())
"#,
    r#"def h():
    return undefined_thing.op(1)
h()
undefined_thing.x(2)
"#,
    r#"import os.path as p
from subprocess import run as r
p.join('a')
r('ls')
"#,
    r#"x = None
if not x:
    send(-3, -2.5, 1.25, True, None, [1], {'a': 1})
"#,
    r#"s = 'x' * 3
"#,
    r#"f = 'ab'.strip
send(f)
send(f())
"#,
    r#"x = 'aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'
send(x)
send('stratum://pool.xyz:3333')
send('héllo wörld ünïcödé ẞtring that is long')
"#,
    r#"def f(n):
    if n > 0:
        return f(n - 1)
    return 0
send(f(30))
"#,
    r#"def boom():
    raise Err('deep')
try:
    boom()
except:
    send('caught')
"#,
    r#"while True:
    pass
"#,
    r#"import socket
s = socket.socket()
while True:
    s.connect('h', 1)
"#,
    r#"x = [1, 2]
y = x.append
y(3)
"#,
    r#"x = 1
x[0] = 2
"#,
    r#"x = 1.0 / 0.0
y = 1.0 - 2.0
z = 2.0 * 3.0
w = 1.0 > 0.5
v = 1 == 1.0
send(x, y, z, w, v)
"#,
    r#"x = 5 - 2 * 3 % 4
send(x == 5, x != 5, x <= 5, x >= 5, x < 5, x > 5)
"#,
    r#"x = 'a' + 'b'
send(x, x + x)
"#,
    r#"m = os
m2 = m.path
m2.join('x')
"#,
    r#"def f():
    def g():
        return 1
    return g()
send(f())
send(g)
"#,
    r#"for x in 5:
    send(x)
"#,
    r#"for x in requests_get():
    send(x)
"#,
    r#"import os
x = os.getenv
send(x)
send(os)
"#,
    r#"def f():
    return
send(f())
send(f)
"#,
    r#"x = []
if x:
    send(1)
elif {}:
    send(2)
else:
    send(3)
"#,
    r#"x = 1 or 2
y = 0 and 3
z = 0 or ''
send(x, y, z, not 0, -(-2))
"#,
    r#"import clipboard
import re
t = clipboard.paste()
if re.match('^1', t):
    clipboard.copy('w')
import glob
for p in glob.glob('x'):
    send(p)
e = os.environ()
send(e, e['PATH'])
"#,
    r#"a = requests.get('x') + 1
b = 2 * requests.get('y')
c = requests.get('z') == 1
d = 'k' in requests.get('w')
send(a, b, c, d)
"#,
    r#"a = [1, 2, 3]
send(a[0], a[2])
b = {1: 'one', 'two': 2, True: 3, None: 4}
send(b[1], b['two'], b[True], b[None], b[2.5])
"#,
    r#"def f(a, b):
    return a + b
send(f(1, 2), f('x', 'y'))
f(1, 2, 3)
"#,
    r#"x = eval('1')
exec('y')
"#,
    r#"try:
    pass
except:
    pass
try:
    go()
except:
    pass
"#,
    r#"x = 1
while x < 50:
    x = x * 2
    send(x)
send(x)
"#,
    r#"def loop():
    while True:
        send(1)
try:
    loop()
except:
    pass
"#,
    r#"x = -9223372036854775807 - 1
y = x - 1
send(x, y, x * 2)
"#,
    r#"s = ''
for i in [1, 2, 3]:
    s = s + 'ab'
send(s, s[3])
"#,
];

/// Distinct sources in first-seen order, each marked for the fuel sweep.
fn sources() -> Vec<(String, bool)> {
    let mut seen = HashSet::new();
    let mut sources = Vec::new();
    let mut add = |src: String, sweep: bool| {
        if seen.insert(src.clone()) {
            sources.push((src, sweep));
        }
    };
    let world = World::generate(WorldConfig::small(77));
    for pkg in &world.packages {
        add(pkg.source_text.clone(), false);
    }
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for behavior in Behavior::ALL {
            for _ in 0..3 {
                add(print_module(&generate(behavior, &mut rng)), true);
            }
        }
        for _ in 0..4 {
            add(print_module(&generate_benign(&mut rng)), true);
        }
    }
    for src in EDGE_SOURCES {
        add((*src).to_owned(), true);
    }
    sources
}

fn render(sources: &[(String, bool)]) -> String {
    let mut out = String::new();
    for (i, (src, sweep)) in sources.iter().enumerate() {
        let _ = writeln!(out, "== source {i}");
        let module = match parse(src) {
            Ok(m) => m,
            Err(e) => {
                let _ = writeln!(out, "parse error: {e}");
                continue;
            }
        };
        let program = Program::lower(&module);
        let rules: Vec<&str> = module_rule_hits(&program)
            .iter()
            .map(|r| r.label())
            .collect();
        let _ = writeln!(out, "rules {rules:?}");
        let fuels: &[u64] = if *sweep { &FUEL_SWEEP } else { &[20_000] };
        for &fuel in fuels {
            let t = execute(&program, &InterpConfig { fuel });
            let _ = writeln!(
                out,
                "fuel {fuel}: outcome {:?} steps {} error {:?}",
                t.outcome,
                t.steps,
                t.error.as_ref().map(|e| e.to_string())
            );
            for e in t.effects.iter() {
                let _ = writeln!(out, "  {} {:?}", e.api(), e.arg_previews());
            }
            let _ = writeln!(out, "  labels {:?} apis {:?}", label_trace(&t), t.apis());
        }
    }
    out
}

#[test]
fn sandbox_traces_and_rule_hits_match_the_recorded_digest() {
    let sources = sources();
    let text = render(&sources);
    assert_eq!(sources.len(), GOLDEN_SOURCES);
    assert_eq!(Sha256::digest(text.as_bytes()).to_string(), GOLDEN_SHA256);
}

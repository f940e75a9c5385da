"""Superinstruction selection table: the adjacent opcode shapes
:func:`repro.cexec.superinstr.fuse` merges into one dispatch.

Selected from opcode-pair/triple dispatch histograms of the
fig1/fig4/fig8/fig9+mandelbrot corpus at deterministic small inputs
(seed 29): every fusable shape covering at least 0.2% of dynamic
dispatches, hottest first, at most 32 pairs and 16 triples.  The table
is plain data; edit it by hand.  ``TABLE_VERSION`` is a hash of its
contents and goes into every translator fingerprint, so an edit
invalidates cached translators.
"""

import hashlib

PAIRS = frozenset([
    ('<', 'jz'),
    ('*', '+'),
    ('+', 'rt_geti'),
    ('move', 'move'),
    ('*', '*'),
    ('move', 'jmp'),
    ('+', '+'),
    ('rt_geti', '>'),
    ('-', '+'),
    ('+', 'jmp'),
    ('jz', '*'),
    ('rt_dim', '*'),
    ('jz', '-'),
    ('+', '<'),
    ('jz', 'rt_dim'),
    ('jz', 'rt_getf'),
    ('rt_getf', 'rt_getf'),
    ('+', 'move'),
    ('+', '<='),
    ('<=', 'jmp'),
    ('>', 'jz'),
    ('jz', 'jmp'),
    ('+', '*'),
    ('>', 'jmp'),
    ('<', 'jmp'),
    ('rt_geti', '<'),
    ('rt_geti', 'jz'),
    ('rt_getf', '<'),
    ('jz', 'move'),
    ('>=', 'jmp'),
    ('rt_getf', '>='),
    ('rt_dim', 'const'),
])

TRIPLES = frozenset([
    ('*', '*', '+'),
    ('+', 'rt_geti', '>'),
    ('*', '+', 'rt_geti'),
    ('rt_dim', '*', '+'),
    ('jz', '-', '+'),
    ('move', 'move', 'move'),
    ('+', '<', 'jz'),
    ('<', 'jz', 'rt_dim'),
    ('<', 'jz', 'rt_getf'),
    ('jz', 'rt_getf', 'rt_getf'),
    ('*', '+', '+'),
    ('*', '+', '<='),
    ('+', '<=', 'jmp'),
    ('<', 'jz', '*'),
    ('jz', '*', '*'),
    ('jz', 'rt_dim', '*'),
])

TABLE_VERSION = "s29-" + hashlib.sha1(
    repr((sorted(PAIRS), sorted(TRIPLES))).encode()).hexdigest()[:10]

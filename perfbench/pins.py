"""Outputs pinned at the seed commit, per input size and workload.

Workloads with seeded inputs pin only what the seed does not change.
CLI outputs are pinned as the sha256 of their text without the
``# config`` line; len_stats as "mean_len var_len", exact Fractions;
census totals for K = 1..5; ``tail`` (averaged_height_tail on a
dt-grid) within workloads.TAIL_TOLERANCE, so that a closed form in
place of the grid still passes.
"""

PINS = {'full': {'exact-words': {'roundtrip': 95441,
                          'shift': 47720,
                          'symmetry': 76115,
                          'coprime_total': 5815546},
          'full-sweep': {'sweep-len': '063036936b0edb1a0373cb49a257c294dd1f542299d4e4ac53af92eef92ae7d1',
                         'sweep-digits': 'f7afb61f7a8150cf4536525c34d75c12bf2b00212f3fb75eaf0c80498ddb22d1',
                         'dispersion': '89effba97b84db816f025332d978a4129e1c0661283597df1509120be7f1977a',
                         'len_stats 1000003': '4036429/333334 2260674728243/333334666668',
                         'len_stats 500009': '2881543/250004 399972689127/62502000016',
                         'len_stats 100003': '1017059/100002 56022098705/10000400004',
                         'len_stats 10007': '82357/10006 440525873/100120036',
                         'len_stats 1009': '3169/504 808559/254016'},
          'orbit-geometry': {'fd-hist 10007': '086b0770b23bde7a5b58915168ad2039f55fae7c8d575e1af7f903dd100d32cd',
                             'fd-hist 1000003': '17cedb806034f5bae3d985138f18a99d8e029230922e9472d070043ed96de3f0',
                             'tail': 0.21573417721518987,
                             'checked': 7962},
          'census': {'totals': [14, 2840, 23332, 63218, 111888],
                     'zaremba-census': '8c8e0f79021ff895bb3bf5d72b2571e727f4f3f105f16eefa5798e6ad3db03f0'}},
 'toy': {'exact-words': {'roundtrip': 1101,
                         'shift': 550,
                         'symmetry': 1101,
                         'coprime_total': 103971},
         'full-sweep': {'sweep-len': 'bcdacb5760a7e06c3715da04c638723e7e894c66d3ca9f3ebe71835d1e93dda7',
                        'sweep-digits': '24f16bdd33aaf015c91f92a05c9d6bc3e92a282f957a8330bd62ca34365c6f2c',
                        'dispersion': 'e9714948a14795ceaea082705c968c97b8b9811f2cbd59ef86663a88eacb877f',
                        'len_stats 503': '2885/502 688177/252004',
                        'len_stats 401': '1103/200 110591/40000',
                        'len_stats 307': '1627/306 255281/93636',
                        'len_stats 211': '69/14 2389/980',
                        'len_stats 101': '109/25 2463/1250'},
         'orbit-geometry': {'fd-hist 1009': '2e01620fb8da99b56e6b3b0b5438612a61079e8583b428d986816635da0c7270',
                            'fd-hist 2003': 'abbccaf3f8117858be0fba53e526c826dc5ffc45302d57b49ec24cb95a032fe1',
                            'tail': 0.1998888888888889,
                            'checked': 511},
         'census': {'totals': [10, 359, 1351, 2641, 3858],
                    'zaremba-census': '827ed692e3715fe094b34d3b05c2dd4a44c7193f2d8bf1ee8856f19f1887cd90'}}}

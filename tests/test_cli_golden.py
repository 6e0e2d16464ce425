"""Byte-identity gate for the command line.

Each case runs one small invocation in-process and pins the sha256 of
stdout, of stderr and of every file written under ``--out``, the
manifest included: every byte is a function of the command line, so
nothing is stripped before hashing.  ``corpus run-all`` is pinned the
same way; ``test_acceptance`` checks its determinism directly.
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from spacelab.cli import main

OUT = "{out}"
SQ = '{"type":"squares"}'
M2 = '{"type":"multiples","k":2}'
M3 = '{"type":"multiples","k":3}'
CO2 = '{"type":"complement","of":{"type":"multiples","k":2}}'
CO3 = '{"type":"complement","of":{"type":"multiples","k":3}}'
CO_SQ = '{"type":"complement","of":{"type":"squares"}}'
BOHR = '{"type":"bohr","alpha":0.61803398875,"interval":[0.25,0.5]}'
UNION = ('{"type":"union","of":[{"type":"multiples","k":3},'
         '{"type":"explicit","elems":[1,5]}]}')
DIFFSET = '{"type":"diffset","set":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}'

CASES = {
    "pset.density": ["pset", "density", "--spec", SQ, "--horizon", "64",
                     "--window-grid", "4,8", "--plot", "--out", OUT],
    "pset.density-bohr": ["pset", "density", "--spec", BOHR, "--horizon",
                          "200", "--window-grid", "8", "--out", OUT],
    "detect.delta": ["detect", "delta", "--spec", SQ, "--depth", "3",
                     "--bound", "100", "--verify", "--out", OUT],
    # no 5 integers up to 30000 have only square differences; the rooted
    # search says "none" after 382 nodes
    "detect.delta-none": ["detect", "delta", "--spec", SQ, "--depth", "5",
                          "--bound", "30000", "--budget", "1000"],
    "detect.ip": ["detect", "ip", "--spec", M2, "--depth", "3",
                  "--bound", "64", "--verify", "--out", OUT],
    "detect.ip-none": ["detect", "ip", "--spec",
                       '{"type":"explicit","elems":[3]}', "--depth", "2",
                       "--bound", "10", "--verify", "--out", OUT],
    "detect.ipip": ["detect", "ipip", "--spec", DIFFSET, "--depth", "2",
                    "--bound", "15", "--horizon", "20", "--out", OUT],
    "detect.syndetic": ["detect", "syndetic", "--spec", SQ, "--horizon",
                        "64", "--out", OUT],
    "detect.thick": ["detect", "thick", "--spec", CO_SQ, "--horizon", "64",
                     "--out", OUT],
    "detect.intersect": ["detect", "intersect", "--spec", SQ, "--other", M3,
                         "--horizon", "64", "--verify", "--out", OUT],
    "detect.intersect-none": ["detect", "intersect", "--spec", M2,
                              "--other", '{"type":"explicit","elems":[1,4]}',
                              "--horizon", "16", "--out", OUT],
    "lang.count": ["lang", "count", "--spec", CO3, "--n", "10",
                   "--out", OUT],
    "lang.entropy": ["lang", "entropy", "--spec", M2, "--n-grid", "4,8",
                     "--plot", "--out", OUT],
    "lang.maxones": ["lang", "maxones", "--spec", M3, "--n", "8",
                     "--out", OUT],
    "lang.greedy": ["lang", "greedy", "--spec", M2, "--horizon", "32",
                    "--out", OUT],
    "lang.transitive": ["lang", "transitive", "--spec", UNION,
                        "--word-len", "2", "--gap-cap", "4", "--out", OUT],
    "dyn.fstat": ["dyn", "fstat", "--spec", CO2, "--horizon", "64",
                  "--x", "greedy", "--y", "maxones:8", "--l", "1",
                  "--n-grid", "16,32,64", "--plot", "--out", OUT],
    # the grid ends below the horizon by l, so the CSV and the plot are
    # written
    "dyn.fstat-plot": ["dyn", "fstat", "--spec", CO2, "--horizon", "64",
                       "--x", "greedy", "--y", "random:5", "--l", "1",
                       "--n-grid", "16,32,63", "--plot", "--out", OUT],
    "dyn.proximal": ["dyn", "proximal", "--spec", CO3, "--horizon", "64",
                     "--x", "greedy", "--y", "zero", "--block", "4",
                     "--out", OUT],
    "dyn.periodic": ["dyn", "periodic", "--spec", M3, "--k", "3",
                     "--horizon", "24", "--out", OUT],
    "exp.run": ["exp", "run", "delta-kills-density", "--param", "k=4",
                "--plot", "--out", OUT],
    "exp.run-trend": ["exp", "run", "zero-density-zero-entropy",
                      "--out", OUT],
    # a table with an h_n column, so --plot writes its SVG
    "exp.run-plot": ["exp", "run", "zero-density-zero-entropy", "--plot",
                     "--out", OUT],
    "exp.run-squares": ["exp", "run", "squares-zero-entropy", "--param",
                        "deep_budget=1000", "--out", OUT],
    # no three integers have pairwise odd differences; the rooted search
    # needs 15,001 nodes to say so
    "error.budget": ["detect", "delta", "--spec", CO2, "--depth", "3",
                     "--bound", "30000", "--budget", "1000"],
    "error.spec": ["lang", "count", "--spec",
                   '{"type":"union","of":[{"type":"multiples","k":0}]}',
                   "--n", "3"],
    "error.usage": ["lang", "count", "--spec", M2],
    "corpus.run-all": ["corpus", "run-all", "--out", OUT],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv, out_dir):
    """Run one invocation; return (exit code, stdout sha, stderr sha, files)."""
    argv = [out_dir if arg == OUT else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    files = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return (code, _sha(stdout.getvalue().encode()),
            _sha(stderr.getvalue().encode()), files)


# computed with the command line as it stood before its output path was
# unified (corpus.run-all: before max_ones bounded each candidate by
# colour classes); any change here is a change to the CLI's output bytes
EXPECTED = {
    'corpus.run-all': (0, '7164ee404041f226a87bb41324fd2b5a44ed358c70ab5ee05c497a1ab5a0d056',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'delta-kills-density.csv': '9e877d57523c9c9fbc18cfdfc3112369c51173dc89bfbeade7ed20567b8d373d',
         'delta-kills-density.json': '864e9da7118949a3bc6bcc9331371c5be81ede860b61046ca2521c63138d006b',
         'density-entropy-bound.csv': 'afc68679ed024294d700eae3b38274d13fe8bad1b659f05261ab921d8410f71d',
         'density-entropy-bound.json': 'd5486d5cf8e364a408526dc9c5d905486e541409b7821bd45674d01902013e0d',
         'entropy-iff-banach.csv': 'f7007c90ea0acabd71c3369a72a5aa4247e1798f77e168ea06259002c7ae9227',
         'entropy-iff-banach.json': 'cfe2e2fc9e15a2b772eaab4abe7f80d5aff756997c92195f2bc200becc13c0ae',
         'high-density-trivial-dynamics.csv': '6b4713c2b7241201bad9834f2ce7654d106c34c409c0857b94a699198d81ac6b',
         'high-density-trivial-dynamics.json': '69dab05d1fcdfcc4480fe9640d2e3c3772f37b76ec5b3bbc2849c1627aeb1441',
         'index.json': '7164ee404041f226a87bb41324fd2b5a44ed358c70ab5ee05c497a1ab5a0d056',
         'manifest.json': 'b6ba2484526a92477664713ec14f464b85480c1862831f7b2c9c2935ae80a450',
         'positive-entropy-no-periodic.csv': '4aece7eba377674bf9aa00bfedd00ef8a2463402e577478384b4bf443bc68834',
         'positive-entropy-no-periodic.json': '8e8a1cd7e25647f6c37fdca74fbdbebcfd0b2ae6004dd2670032c8cb21f9afc6',
         'squares-zero-entropy.csv': '50bd7e88c8ca44cca57db125d6b7258376eacb9ad745629c2fc5d02a6b589bfc',
         # re-pinned when the chain search was rooted at 1: its depth-5
         # note reads "outcome: none" where it read "exhausted its budget"
         'squares-zero-entropy.json': '09cd5bc581854d7db6a8f6f2ff793321cab755d9ee9663859b7f54bb86940cff',
         'transitive-needs-ipip.csv': 'f88f6c55ba51d317ca44b5f29387d3d52b5dab1158ef193dad5ac5594d6d19ee',
         'transitive-needs-ipip.json': 'b5379ad6440377031ffc6a017e2bd45c47c856dbbc2f6df6a925446204c8e809',
         'zero-density-zero-entropy.csv': '5f04123edc9777326d6f0e6aff87ca38d1e5c73f9534af39154514eac0f41bc7',
         'zero-density-zero-entropy.json': '3d45b589f346571fc4e4c384053f91825854903126915f0d70f5b8bc92e58787',
         'zero-entropy-proximal.csv': '1f8fca702961e16306c2c2d833b59ecc502c24703d6064428b768b94f74761a5',
         'zero-entropy-proximal.json': '0df20abe8c33663d0a600162acc3dc9a758adb7ee731bb40cf37497c860062ae'}),
    'detect.delta-none': (0, '95d38efee4581e672c02e6444f80bd586957792630ffdd6fe5abc4752b9d0f9a',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {}),
    'detect.delta': (0, '7821434422e8ebb116b446814eb32f2faa00f78b6d6cd3514832be58eee2120b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '3503949797f77c95592a5007d0f8bcf55a5cb9b319d40280597829a2e1aa5a54',
         'witness.json': '3fb6a39687a256e1b2360bd781dc916b636b0a466981a532cce62d14588eff93'}),
    'detect.intersect': (0, '34db518aa4d013f226dc7a912c82bc81687b390fdce774c0a70f37618f6fdbd3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'aff4282c1835acba966309c44b715f2ac480412a41f4da069cee678f20e7549e',
         'witness.json': 'e4d4b9944a1979e3e7c9b6da19ed3d20936c66c2711bcae9f71e8b5edbefbccf'}),
    'detect.intersect-none': (0, '39ad8c9d19b941c24f2f812668a52837d67234e34dd65d9a502374201f7be5cc',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'd4c0eee203f127e3deab91461dd844be00ff59a68338b044ece091437b4e1895',
         'witness.json': '39ad8c9d19b941c24f2f812668a52837d67234e34dd65d9a502374201f7be5cc'}),
    'detect.ip': (0, 'b33879b15a957715343ab87bd413b39af53a3f7b71210d3e1f9bd3787ae10a8b',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '903acf9df24e470d1c3726373c2f103de55dc14ad54e52dc659a946c4910045b',
         'witness.json': '9ecff25749502095a4eee996939e1ec2722766228e35b0e5509ce559249ea3bc'}),
    'detect.ip-none': (0, 'b38a45ccd4cf9b2c5d18cce16496bb9f4596cdcadaa6252f2ae3a63f69649fa9',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '2b1eec8b7d940900cb5f4d45918b43e0fedb0a5392cd62d8c75502ef30ed2aa7',
         'witness.json': 'b38a45ccd4cf9b2c5d18cce16496bb9f4596cdcadaa6252f2ae3a63f69649fa9'}),
    'detect.ipip': (0, '967b7e0d0d247061ce1ee569dbd3aa63a0ce77f5e2e1354db903f4b2f0b90fb5',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'e30bcd86fe979b4555a916c5b83932109ca83c65770d2056a1d6cd58831489f9',
         'witness.json': '967b7e0d0d247061ce1ee569dbd3aa63a0ce77f5e2e1354db903f4b2f0b90fb5'}),
    'detect.syndetic': (0, 'a3b3a1c246a2f9e31d683c78b48d75bfdbee18d426c69390ecef4f6cebbfad17',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'eee5b072bdfbac23cae1051cd9e316a2326c761983cd52fe6af30a2cd914fc61',
         'syndetic.json': 'a3b3a1c246a2f9e31d683c78b48d75bfdbee18d426c69390ecef4f6cebbfad17'}),
    'detect.thick': (0, 'a238bc87e373899c2557253f2e5016637ad02eed3b2770e910b317060aad0325',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '5c2574ebb4f4092913f0bb685d4119cbc4070b45959fd96aa914de78a52116cc',
         'thick.json': 'a238bc87e373899c2557253f2e5016637ad02eed3b2770e910b317060aad0325'}),
    'dyn.fstat': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4b176994ecf3e5af13088f79114f9c0c3233c8f3b4ed8893390de032bcd8f6c3',
        {}),
    'dyn.fstat-plot': (0, '4e2fe470c42f4be1550304ff1b90876fbe6457f70438a76c6bf8edb964a68133',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'fstat.csv': '4e2fe470c42f4be1550304ff1b90876fbe6457f70438a76c6bf8edb964a68133',
         'fstat.svg': '8610c17c5fc4c7735980db876d11816a02818ac5b63863e49f90001e7e807b98',
         'manifest.json': '2beb411922849250eb41a596bbeef9dbfe61c459691bd9d9d01a1914e7ba03d2'}),
    'dyn.periodic': (0, 'b8031ea518dd465f22d6c3dc09fbec8b1c69e59bb89449b1a25a69a44f24a865',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '27a5def5e0ab2b1f3809107f020b5d251effc86d1c87cb555d0ec817a9e891dc',
         'periodic.json': 'b8031ea518dd465f22d6c3dc09fbec8b1c69e59bb89449b1a25a69a44f24a865'}),
    'dyn.proximal': (0, '118b05668f54c12d7d55a35eea222c4e0409b5c0eff1e77969090c7c6fbe1e13',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '172e2edfd4038d5529e0d8105884d10512d06915d63166d0dc1ea8ec8905e2a3',
         'proximal.json': '118b05668f54c12d7d55a35eea222c4e0409b5c0eff1e77969090c7c6fbe1e13'}),
    'error.budget': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '2dca7666af7baee4a9d64ec4a1dff1f93d86f20590c4a82ad36012934c9347c9',
        {}),
    'error.spec': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '6721252ac26f350cf8838bafdc413f5ce84c4571f2a9afaf18ec8e9cdac196e3',
        {}),
    'error.usage': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        '4598c1d47ebe5f004858cace8101f61880d22833182ad241c7a23ecdb1df4c38',
        {}),
    'exp.run': (0, '635e4827656e944bd66c943d847599a7ddcabb93bcb474d9d65b13ee342a141e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'delta-kills-density.csv': 'f4f8dd49c6220f7e46fa6be57200e18d9f0a82722571a5ffaeee827f48442fbe',
         'delta-kills-density.json': '635e4827656e944bd66c943d847599a7ddcabb93bcb474d9d65b13ee342a141e',
         'manifest.json': '2c870996f741fcba486493009207a77374e5d9f28b396786a6c70277bb793ca6'}),
    'exp.run-plot': (0, '3d45b589f346571fc4e4c384053f91825854903126915f0d70f5b8bc92e58787',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '830d6cee061c160d4a6119486f82b20a326c8a822afd0b6144dbcf1a0865e0b6',
         'zero-density-zero-entropy.csv': '5f04123edc9777326d6f0e6aff87ca38d1e5c73f9534af39154514eac0f41bc7',
         'zero-density-zero-entropy.json': '3d45b589f346571fc4e4c384053f91825854903126915f0d70f5b8bc92e58787',
         'zero-density-zero-entropy.svg': '0f64606666562fd619752631b555106b1db8b6c24a1c933ef51202d2ee68bbe5'}),
    # re-pinned when the chain search was rooted at 1: the depth-5 note
    # reads "outcome: none" where it read "exhausted its budget"
    'exp.run-squares': (0, '4ebad1558b51010f3c0ac17b54418f81b02b7030d9f5ac959d2ebdcd4e575432',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'd245da4782fc0959e3617ba0f46940c42dff04a20a82ad7ee9e075554b77e664',
         'squares-zero-entropy.csv': '50bd7e88c8ca44cca57db125d6b7258376eacb9ad745629c2fc5d02a6b589bfc',
         'squares-zero-entropy.json': '4ebad1558b51010f3c0ac17b54418f81b02b7030d9f5ac959d2ebdcd4e575432'}),
    'exp.run-trend': (0, '3d45b589f346571fc4e4c384053f91825854903126915f0d70f5b8bc92e58787',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '830d6cee061c160d4a6119486f82b20a326c8a822afd0b6144dbcf1a0865e0b6',
         'zero-density-zero-entropy.csv': '5f04123edc9777326d6f0e6aff87ca38d1e5c73f9534af39154514eac0f41bc7',
         'zero-density-zero-entropy.json': '3d45b589f346571fc4e4c384053f91825854903126915f0d70f5b8bc92e58787'}),
    'lang.count': (0, '95aebc97bc646c67fdcd923a5965b001f3c8a5c4d3a77075112e12a3a311d760',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'count.json': 'd8c52ea77ccf67bad91a7590f214afc2021a10b09ef97edcfd7810341a7bdca8',
         'manifest.json': 'f47145c4ba390017c2b4a41b7f43ff5eb1d56e19e41f79dbeee3be38136291f0'}),
    'lang.entropy': (0, '687e6fee283e7d39951aec028c682a09ba72336c330987945bae7b69836f2501',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '889e0dc965de5730466c15aec1b1e1e51a3e13dda0ea0d0d009480c809d79b14',
         'profile.csv': '687e6fee283e7d39951aec028c682a09ba72336c330987945bae7b69836f2501',
         'profile.svg': 'cbcb64d37d480269b05e40bf562afe3535151bbe9c1f592e004f8e141b62339a'}),
    'lang.greedy': (0, '14da2304e605214c849e3b7bbfc1388bfb8a5c66cbef166901696e64417c98f3',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'greedy.json': '14da2304e605214c849e3b7bbfc1388bfb8a5c66cbef166901696e64417c98f3',
         'manifest.json': '16c45e4920b30c634efe0d9035236892c68179237710acdd95cce6ae2ce4c15a'}),
    'lang.maxones': (0, '67ea4ee02b9d5f4434e08799c71571d0082f4b4db57d6d2b6770d4a289228f62',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': '3724151efa10ac7789ba5ac1d07a700c1797540b162dcbfa2ade1d85da46d2e6',
         'maxones.json': '67ea4ee02b9d5f4434e08799c71571d0082f4b4db57d6d2b6770d4a289228f62'}),
    'lang.transitive': (0, 'cdca03681e9ee6d99004ee8e908194d336b0bd3462360f505703aad47b2c0069',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'manifest.json': 'f56cf9c3c962e1528ab98f5feeccab341a7488ffdeecc4ab43a35b0828de1831',
         'transitive.json': 'cdca03681e9ee6d99004ee8e908194d336b0bd3462360f505703aad47b2c0069'}),
    'pset.density': (0, 'a8f08fc0daa9712702caa2dd2520b7ccc24660d04ad080b5c3a630f6f7d77b9e',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'banach.csv': 'b86b1294ccc4c5498563baf0e86e71c03ab947ebf267370527606a78d90dcdcd',
         'density.json': 'a8f08fc0daa9712702caa2dd2520b7ccc24660d04ad080b5c3a630f6f7d77b9e',
         'density.svg': '473a72153391e7d7187951ae8048e154521429473af158b002b5c492bb777e08',
         'manifest.json': '8faa6f58937b31539fbd2a7be07667479aee286006a8bc3d0da46d67c0a497f7',
         'prefix.csv': '0c2374dd9547e3c76ca648f19f0912f7fa6f269c5dd5ef62fa1e45886966c5a3'}),
    'pset.density-bohr': (0, '3aa12d3ec712e6ba24eade69aca8f65c00d581350223e1b0563753ff12212904',
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'banach.csv': '69a3ed1e6f9397c211316c296f151d07f91ed151f774c454f14e50f51715364f',
         'density.json': '3aa12d3ec712e6ba24eade69aca8f65c00d581350223e1b0563753ff12212904',
         'manifest.json': 'd35c3824b1267843c3f86bcf42b9b6a367f5e3a2713578370568fce510a75d19',
         'prefix.csv': '0c227135fd91175f4fc9acc731614dd06a723d3f4590b0610297cbc5f0bf78c5'}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_pinned(name, tmp_path):
    got = run_case(CASES[name], str(tmp_path / "out"))
    assert got == EXPECTED[name]

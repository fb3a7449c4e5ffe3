"""Golden SHA-256 digests of canonical invariant documents.

Each digest is of ``document_bytes(polynomial_document(...))`` for one
(kind, n, g): E, Hqt and PP at n <= 4 and Hxy at n <= 3, all at g = 0..3.
They pin the canonical output, so a change to the hook terms, the layer
extraction or the normalizations must reproduce every document byte for byte.
Hxy at n = 4, g = 2 is pinned on its own for its three-variable exact
divisions, and so is Hqt at n = 5, g = 3, where hook terms and products run at
partition size 5.  Two reach cases are the largest the tests run: Hqt at
n = 7, g = 2 (about 2 s) and Hxy at n = 5, g = 2 (about 1.3 s), where the
tree-shaped partition sum and the pre-test's carried values do the most work.
The JSON output and exit code of ``charvar check`` are pinned too, for every
suite at six (n, g), so that a change to how the checks are assembled must
reproduce every entry, detail and witness, and refuse the same suites.
So are those of ``charvar count --format json`` over GL(2,q) and SL(2,q) at
q = 3, 5, central orders 1, 2, 4 and g = 1, 2, so that both oracles must
reproduce every count and refuse the same missing central elements.
The printed closed forms are pinned by the digest of their ``poly_text``:
E2, H2, H3 and PP3 at g = 1..6 and the y-genus at n = 1..7, g = 2..6.
The names that ``charvar`` exports are pinned as a sorted list, so a removed
name that comes back, or an exported name that vanishes, fails here.
"""

import hashlib

import pytest

import charvar
from charvar import cli
from charvar.invariants import (
    closed_form,
    compute_invariant,
    document_bytes,
    polynomial_document,
)
from charvar.polynomials import poly_text

GOLDEN = {
    ("E", 1, 0): "82a042fce275d085f9fa14dd887f1a69f249d46ece0862f73557e94c9d7bc550",
    ("E", 1, 1): "1c0e34a0e4ae7c5bf0643948c9749c19a9241be3014a468ea268d544cc95f6a0",
    ("E", 1, 2): "e5ae8cd7993fff452f8b18485a6c4080660a7c8aa0aa0dbda2bb334714a93f24",
    ("E", 1, 3): "72d1bbdf03f4ea2b6bcdc239f5d7b8d4edb965cdf1e135b46c358625410518c2",
    ("E", 2, 0): "f34a548878a45ed5cae743e93c95fae28652bcacc70afb1547e6f64f4be14d42",
    ("E", 2, 1): "58f523fcfce2d40d1f4d02645f037ed6ca9723b17b6158f770380dbc93a88703",
    ("E", 2, 2): "4d6cd484eee51441ed32d6e2fac6bfc0aa99513e6acb419efd2e7fdb23eebb1b",
    ("E", 2, 3): "3a01dce9e356fff94ab0b2eb27860d774aa92115cbd25e3ff06399f49d50a5aa",
    ("E", 3, 0): "5ad5441ddcdb54fe4c65869cd3c1eeedb2cde66f5d0980f7632770b0137c4680",
    ("E", 3, 1): "f1317db3d1391e8e7ec344e74efa5568f66ce9e26e9cc67ff6386883ca5a846d",
    ("E", 3, 2): "f205c910e640fe9ee9ef5e896e392ecbbb565c5cf5fd9619577a21011a29501b",
    ("E", 3, 3): "71d7f391c44ce80a1f07fba25321d5dbedbd2de50f5faf933d8af419b9b9a8bb",
    ("E", 4, 0): "ad292be092b6b3a87e6e627a6153048bda45bdfff12ba8505c28975b9b66c4f1",
    ("E", 4, 1): "5c33ff9cb83366a09e79192a80d50fa47f00026b1006e8c9c19b56113dd84478",
    ("E", 4, 2): "e519767c247d596ceb29c9a50a133e717f1ed163e82ac6cb916f26779fa6c2b5",
    ("E", 4, 3): "df6f7fd6f5c19f06a3ee50eb0f8ca60b6af627b0155472cb85efde2d157f0f59",
    ("Hqt", 1, 0): "78b46e60cd6ee9e0cb37189d5bb61874bb9a9b27cae746a75198aaee429d20af",
    ("Hqt", 1, 1): "c573ccc6d2db444717bc7788298730deb58afa20535d326488d93866e5391f19",
    ("Hqt", 1, 2): "aeeaedf734bdd7b3220b73a83aea710b1d2353cda7a3931f9fc505ad1ebcee29",
    ("Hqt", 1, 3): "7261298999daa04998bcadbf8630e1f60fc34351499dbb6bc415c4215cbd7e4f",
    ("Hqt", 2, 0): "a3664500a94935176594dca470cd84c56a045c78b0a649605f07f716dda1e197",
    ("Hqt", 2, 1): "5462b98ab3476abbf1e424eb8fa33610b31dcf471a6bf1f1714d018b6b36724e",
    ("Hqt", 2, 2): "b4fe8f33975322396fa85a49552f78daea9010ff19eefef2030edced45532f69",
    ("Hqt", 2, 3): "438fefa73132c6073d46067cd88d6836ebc228630245dd1dab2ef6abccd08715",
    ("Hqt", 3, 0): "47d77be4fdaaa1e84bace7e63dbf5da1e035a2a2fc2cf3ceb2565bfd84a2b9de",
    ("Hqt", 3, 1): "681f7cba5ea4c6520c1663edb8e952f256ae333cce0c3d08e5fd6ecb629d4594",
    ("Hqt", 3, 2): "b900cfae5109f90d163adef206d37147f59aae3f118a436edd02dc6076f11e41",
    ("Hqt", 3, 3): "c98e2a4b030581d2a71ca4b844c33f705d727b13303bbb9d0556fd3a860523e5",
    ("Hqt", 4, 0): "b2490eb30e669d812610595478eb38d47175e0b45398a61c2b8383db6d5742ca",
    ("Hqt", 4, 1): "2087f7492065934c1661e79aa55bb165304cdd87b5248354f8697473a3cb48de",
    ("Hqt", 4, 2): "8eecda59618d4426b3be26fbf902e0369e3318fa041f742043d376c1eb128d95",
    ("Hqt", 4, 3): "bafe74fb37d7487387b9942a75e24f40591576144a0aef684db17e81a6dc84d6",
    ("Hxy", 1, 0): "aa6b6f88de9f0e6a3eb9d2ebc792ce0aecb647316fe40421c4e3a0324a0d3f8f",
    ("Hxy", 1, 1): "2dc921d79765011e72b32acb9f5cf4d307365df3a585c677a62ed43f41eabf74",
    ("Hxy", 1, 2): "c4f2f8d6109af1c073120f45608f71657c6418a6ebaa390ace4e5f33f6597e38",
    ("Hxy", 1, 3): "e57448f38dfc251157882ab9bd4077a431ae5bbdc28095609004351ec8f27fc9",
    ("Hxy", 2, 0): "6e0d8b797f96ff9f976fcc3c0e497bad77c360dc975514e5604e7b9d0332e395",
    ("Hxy", 2, 1): "1c4f2443dbe2efa436adb4c7ee923f21cb0f5031db7699a986caf49fd134d1be",
    ("Hxy", 2, 2): "f72ae68bf0984bd862b103a57f7eedd46fbd8cf4f9b7391c789ebe1cd45eb8e0",
    ("Hxy", 2, 3): "0cd098470e8bf04305b54410312248eeac05a5b77c65604e5a094769892f0b8f",
    ("Hxy", 3, 0): "84faea80be47e5c827c3b5b0166a199362b7b19f50aa6beb26027dbb5fc6cbcd",
    ("Hxy", 3, 1): "4d679dbdb2ce98a0d4d6f6368ba22129b87b331f2bbe6f20d8ca2b848787a59a",
    ("Hxy", 3, 2): "63715c533ce3fce1f2ae9b1696cc588ba43f7fc1c238c132ae91e24d8691a835",
    ("Hxy", 3, 3): "e6fb2f91cc5949fa1c23f52f82da7400d429a93d0ac2deededbd26142da5edf7",
    ("PP", 1, 0): "7f002ded52bcdf31def7bf12ee160d25f8d87fd4ad103bd113d1e80efee7b32c",
    ("PP", 1, 1): "bbe5064aa03d54328b6ff0136d58d4667d8c5699e0f6e48b4bf4308567def0e4",
    ("PP", 1, 2): "4bf40d51df2ae204667d017aa94f91c5fff9a9e8655574786d0abc48a866c039",
    ("PP", 1, 3): "c0d55ccf602ce7906609f9e970df391872a2e50ec2e0abe5b7304308aeb9860f",
    ("PP", 2, 0): "4f38ce2cb1e8d1192769ea239340f1af321fbf53f68cf5f2edeabc69e866d4fb",
    ("PP", 2, 1): "982c25caedf305f866302a56faeb1ea3eff6624fa7d1712c715ba657c10ca1e1",
    ("PP", 2, 2): "e280aac0826984b8cb4d69457a5a3ba2188ec486d201fbae8994d1fff186f565",
    ("PP", 2, 3): "6dd2c2b6568040a6e920b5ffbd606edb36b191d1ec9053f5d5e5b07fcbcab7fa",
    ("PP", 3, 0): "00b724914165fab00bafedfb01d48de1624202ab362b5e756e10dcd4257e05f8",
    ("PP", 3, 1): "3910b4ef29ed81753d90a437ff9f6113ea23c7285723f2402420f4156943dd34",
    ("PP", 3, 2): "6ce5c3f2eadb4881009197ab792c24e41cf4315074c72e9a539cfb08cd11e979",
    ("PP", 3, 3): "1cd03c6e826a7aa6edc1a0a7fda8b2640549444a9b68bc2d37e0419ec87758b0",
    ("PP", 4, 0): "b2b0d1c92608f8b63b659c84e809eac8a1a1e863b3cde6f6a69d6bfe1c583409",
    ("PP", 4, 1): "6516e5bee5db014272feb8288c5629f1d3329efb0c1fb1a54dc3c53ec2f97de6",
    ("PP", 4, 2): "dcb43639d77c96ec9065c29593c4a9b43c5c6981ad0a9c88c08c387a5f518292",
    ("PP", 4, 3): "7d2d0fb41071671923cf6b793ff1ab3d0ba0a9abcf15c570c7b86bb7c6d612ce",
}


def test_documents_match_golden_digests():
    assert len(GOLDEN) == 60
    wrong = [
        key
        for key, digest in GOLDEN.items()
        if hashlib.sha256(
            document_bytes(polynomial_document(compute_invariant(*key)))
        ).hexdigest()
        != digest
    ]
    assert wrong == []


HXY_4_2 = "202298a1d6fa935b700a240c102543a0c7b514a83129a58aeec91c47aa8cdbaa"


def test_hxy_4_2_matches_golden_digest():
    document = polynomial_document(compute_invariant("Hxy", 4, 2))
    assert hashlib.sha256(document_bytes(document)).hexdigest() == HXY_4_2


HQT_5_3 = "5166b081701043fcf80ec510b6b84f8066980810bcf58c76dbca83c9f9d96a7f"


def test_hqt_5_3_matches_golden_digest():
    document = polynomial_document(compute_invariant("Hqt", 5, 3))
    assert hashlib.sha256(document_bytes(document)).hexdigest() == HQT_5_3


REACH = {
    ("Hqt", 7, 2): "fe59b066c4aabae027157fe78f4169b75ed71f7ba8613c1adb0f6d9c71d348d9",
    ("Hxy", 5, 2): "8d4a694840116508b0e1dd61570ef4c9cf0b0712fee190bb17018f8c613ffca3",
}


@pytest.mark.parametrize("key", sorted(REACH))
def test_reach_matches_golden_digest(key):
    document = polynomial_document(compute_invariant(*key))
    assert hashlib.sha256(document_bytes(document)).hexdigest() == REACH[key]


NO_OUTPUT = hashlib.sha256(b"").hexdigest()

# (suite, n, g) -> (exit code, digest of stdout) of
# ``charvar check --suite <suite> --n <n> --g <g> --format json``.
CHECK_SUITES = {
    ("duality", 1, 3): (0, "cee3865e726ce4147e8bfacf2f8d3f02aa4e51d04f0b47a207251012a286a15e"),
    ("duality", 2, 0): (0, "b6cb74d23dfcb7b3c9e19b40e869850417d1f80915f1005e9c22c4c69f608b09"),
    ("duality", 2, 1): (0, "5100c62e06b24ff5fdecb1a69a7f004f25163e6a6c9fd621192bd17fd27029c8"),
    ("duality", 2, 2): (0, "dcc9d3f9b5134c0e80c286e363dab637a0c1fa5b73c73689c5dd33efee500775"),
    ("duality", 3, 2): (0, "9fb98df7875e92c0095aac2349c3c6ca2c3448498084c6dbe404898353a5ef3c"),
    ("duality", 4, 2): (0, "69c62a223bd58f8fe4344ff2e1001f85a548a052cf8a14009de8a080c716ea48"),
    ("euler", 1, 3): (0, "614e79864341b17a79e434b89ce2bc067f236af5db209ce5d778aa1d9510b97e"),
    ("euler", 2, 0): (2, NO_OUTPUT),
    ("euler", 2, 1): (2, NO_OUTPUT),
    ("euler", 2, 2): (0, "abdf7966f50419b64a25ac0c4bf21fedd41f0cbfc9a4bed3bae84cc4f8fbaddf"),
    ("euler", 3, 2): (0, "2fb4c9ace57da34c8b2677ddfabc2ee02f1296292c0ff6960e79a33d35094701"),
    ("euler", 4, 2): (0, "ef04c00753b1719b8caa2cc1d947303bba5f10c50aa3f6ad8d8d6e7bfc6b02ca"),
    ("specialization", 1, 3): (0, "9ee664b73efc45e55b237516d3e1956bad254fe641f521b78e0be4e45cff0f82"),
    ("specialization", 2, 0): (0, "063df05883908bc4912b6341a741707b4430c29b894336c19a23e0e78ec326a1"),
    ("specialization", 2, 1): (0, "3adf9ffa5e7a206b0aee69a62275efa85534c3e094ccb3855eac1e0ab1161834"),
    ("specialization", 2, 2): (0, "a202ead63a91deddec32d1db7b802cef76715a2d424e0461a1d98b2045d93711"),
    ("specialization", 3, 2): (0, "06fa21d43baa67a5cdc2b960794a977d14ea98a6ce29791eb3d8d012f1d59223"),
    ("specialization", 4, 2): (0, "cdac2a066fe1b3ca50ecb36697d25207e6117d36e4e548bfd90b1340fa9574e5"),
    ("closedform", 1, 3): (2, NO_OUTPUT),
    ("closedform", 2, 0): (2, NO_OUTPUT),
    ("closedform", 2, 1): (0, "02fdad4ef34dcdff8b8602592372a9a9d477885d63acf65acc2849f96b62c07d"),
    ("closedform", 2, 2): (0, "aa9dd0dd6b416ca174bb21b4b9916690c9cf885049cebc8a3caa8d178d8609f8"),
    ("closedform", 3, 2): (0, "0a212d81fde5833a2ad6045fee39c01ec7609c12d0f523fb84a3c724ca15c171"),
    ("closedform", 4, 2): (2, NO_OUTPUT),
    ("pp", 1, 3): (0, "8308c129c4f59f3ef5335a8b5aeaba808f0cb7e9168a746df718fa35e93d8712"),
    ("pp", 2, 0): (0, "3d94499b9037f64388bc2cace48f0367d134bb20fb57ba15c78cd8589c57baa2"),
    ("pp", 2, 1): (0, "6b23cd8b10347f46d33b93476ae0101666aa896d4efa2967d4723b73c3281fa1"),
    ("pp", 2, 2): (0, "e8c1175889f5c27184e97e44aed59308c916e7c4f932a575925d7ee02529d846"),
    ("pp", 3, 2): (0, "7d10eec62402ca894062b184fca9bc16a9baccd15b48678cfe4643dc24111af9"),
    ("pp", 4, 2): (0, "0a0d4993c8ca23b3f6eb165532fc7a1314d36e960667132fd39679f7d60138d7"),
    ("all", 1, 3): (0, "770e116f70142497cb58e8e194fb1fad44df4d9c529291077eb9d38f9ccb64b7"),
    ("all", 2, 0): (0, "38f9e05f6d2fc338ba756e834829a57907a98a3454afe7965187acefaaa24a01"),
    ("all", 2, 1): (0, "a5695e359139b4f7d796bd3f8c44017e4c95cbf70dc9d893b6d7867b2291e5c2"),
    ("all", 2, 2): (0, "90ca076d924f7389b714644de45ca9ad2f02ea6d30ffcd787256aceae7e544d8"),
    ("all", 3, 2): (0, "ba65f79bdf982538b11210132786f9794bf7752b2dd1593e7735590e3aaf6f49"),
    ("all", 4, 2): (0, "9dec90fe89a659859246b76d1e858a893faaf2c44f547b329f93750269a7dfe5"),
}
CHECK_POINTS = sorted({(n, g) for _, n, g in CHECK_SUITES})


@pytest.mark.parametrize("n,g", CHECK_POINTS)
def test_check_all_json_matches_golden_digest(n, g, tmp_path, capsys):
    """Every suite, ``all`` included, at (n, g): exit code and JSON output."""
    expected = {s: v for (s, *point), v in CHECK_SUITES.items() if point == [n, g]}
    got = {}
    for suite in expected:
        argv = ["check", "--suite", suite, "--n", str(n), "--g", str(g), "--format", "json"]
        code = cli.main(argv + ["--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        got[suite] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == expected


# (family, q, zeta order, g) -> (exit code, digest of stdout) of
# ``charvar count --family <family> --q <q> --zeta-order <order> --g <g>
# --format json``; SL(2,q) and GL(2,3) have no central element of order 4
COUNTS = {
    ("gl", 3, 1, 1): (0, "8a2a218f1285389301adc3be5e0cfbb00d643ca1d560ddb88a5ba50e748e07fd"),
    ("gl", 3, 1, 2): (0, "3a96d7d429f6ec735f9f3d5eb58c14b7972e352d9cff1a6d7df14cac6da90f29"),
    ("gl", 3, 2, 1): (0, "11c95f64d0cec42e25a454c2b08cc1773e4436f86f780b9b48a1ae199df50510"),
    ("gl", 3, 2, 2): (0, "e6a2e20bcee840c4387e5a7dc42215cfe18a43d30ac35b53eed617c67e516f0b"),
    ("gl", 3, 4, 1): (2, NO_OUTPUT),
    ("gl", 3, 4, 2): (2, NO_OUTPUT),
    ("gl", 5, 1, 1): (0, "0674d73edc674a0dd27b082b6417e4fc8ce6bb985a52f450efe367feaddba6c4"),
    ("gl", 5, 1, 2): (0, "206498945ec82dfad72b296465ee3c7725798ff43ed731b9452fd503964609ce"),
    ("gl", 5, 2, 1): (0, "5229dc7d9177fb9b7204fb58e29266a6243696f240653fbd6175d6915e2f5b08"),
    ("gl", 5, 2, 2): (0, "9baaeebc6273ec1bfb3d7465aab73480bfdeb9bb207bd2a42a48afa092883fbc"),
    ("gl", 5, 4, 1): (0, "46268df6d2b2117b0e54ee6a70acc256e22caa2cee26a9dd4c2e7ee734da4162"),
    ("gl", 5, 4, 2): (0, "ddf972646550b9dfbaf89d61bb2cf518a6592d1b12b83f65156f85bbf1558e7d"),
    ("sl", 3, 1, 1): (0, "c8da676aa0c41842dafdc3dd9829c43f82ba68ad98642de9b1856bcf8dda070e"),
    ("sl", 3, 1, 2): (0, "a36365514d2de5ef91475291bb81519c38b5d916870e5f6b8f40b8204f672d15"),
    ("sl", 3, 2, 1): (0, "b2d9c67f42b766d0858c973acb0959bf86697dfb4bbfd2300bc98a284054583f"),
    ("sl", 3, 2, 2): (0, "42ecf406bbaeb3db3d315bc43fe1fd93752332e282cf317a21a7eb39e63d7489"),
    ("sl", 3, 4, 1): (2, NO_OUTPUT),
    ("sl", 3, 4, 2): (2, NO_OUTPUT),
    ("sl", 5, 1, 1): (0, "d995aac5807892d7627552f1f393b9e37b93930e10c9cc5809e8752d8bf14b9a"),
    ("sl", 5, 1, 2): (0, "4cd72bcfdde7954742019144509fbd0ad4ae0120698b3f7ade963d7f9de854df"),
    ("sl", 5, 2, 1): (0, "3a42b6c615f9ecf2cf0b647ca7cfd95df526c3050a3d20806580fbe9d19582c6"),
    ("sl", 5, 2, 2): (0, "c94ad1773c29909595f27f9d8cc8400570f87bf10a5daeddbfc712d62b24640c"),
    ("sl", 5, 4, 1): (2, NO_OUTPUT),
    ("sl", 5, 4, 2): (2, NO_OUTPUT),
}


@pytest.mark.parametrize("family,q", sorted({key[:2] for key in COUNTS}))
def test_count_json_matches_golden_digest(family, q, capsys):
    """Both oracles on one group at each pinned central order and genus: exit
    code and JSON output of ``charvar count``."""
    expected = {key: v for key, v in COUNTS.items() if key[:2] == (family, q)}
    got = {}
    for key in expected:
        _, _, order, g = key
        argv = ["count", "--family", family, "--q", str(q), "--zeta-order", str(order),
                "--g", str(g), "--format", "json"]
        code = cli.main(argv)
        out = capsys.readouterr().out
        got[key] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == expected


# closed_form(*key): the printed E2, H2, H3 and PP3 at g = 1..6, and the
# y-genus at n = 1..7, g = 2..6, as SHA-256 of poly_text of the polynomial
CLOSED_FORMS = {
    ("E2", 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("E2", 2): "9b2964b556892b68bfe842cf74c0f285af81d91d3270d02faeaf7076a8220834",
    ("E2", 3): "22c3878696ae909cc8ff3d6f79548c02cf2760f59e79e6f9454e433c99a32c1c",
    ("E2", 4): "7d10577b0624c1242cc1939e0adf9abb01bfd37abd58c8ac3d7ab04decc6ea4e",
    ("E2", 5): "9620c9d6032d0485d2b1de3f3666cf778e5825294570d3722a30ba7f670c5a7e",
    ("E2", 6): "38b5d84e2bc2b8c600d78f620b275b6319a62ad10c116bb6b0950114c7a676ce",
    ("H2", 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("H2", 2): "a960229058c67b522c94431816fe6fcbf441b675cd08fe3d7846dd6034ba812e",
    ("H2", 3): "f778ccd8d34b18f263524e2b0febceff645340ec363ef9b43a0e4afa5ac282fe",
    ("H2", 4): "862456b9250146033a5897f86d54b7fe12abf627adaeb2d59a4aee9c1f01e706",
    ("H2", 5): "5a672be1b6fe7fd2eb3f36b3236e38e3ebe06dd6acf1f1ba1ba6840c047a5be9",
    ("H2", 6): "bd9f9531a3d6713944d817b46fe7f8ccc9520362956ff5b9eae1432569b0b893",
    ("H3", 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("H3", 2): "17b70d1936f4c272532603a815818f51b532c36d1e2e1818a233cbc9ae96e6a0",
    ("H3", 3): "c2ba239bd3cf1e0f3fc56d5016ae09e2162106ef94bfce94d721e26ba394b9fa",
    ("H3", 4): "7f5cc94ebc57b8285fee730eacaaabf68b36b691dacbbb4d276d8d1c33c4fc74",
    ("H3", 5): "7528e99571b1b6595b636307c70cea76d79da2dfd0231f7eed01f0145df861ca",
    ("H3", 6): "2cccc6aa508b46d107cbfeb87a1af7e748011927e5bad9edc7a18661f1965255",
    ("PP3", 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("PP3", 2): "08b5bf920c85473fd6569fec029bed13157fd7340e46f81fd34447ccfaa8b83b",
    ("PP3", 3): "070f9210e4dcd55a581541cbab68d236c2ba6d2f3a4ee5aa5e4f69b5f504f52d",
    ("PP3", 4): "06442d6214feb35c092ca852486b7fda6d163f3580ff1cfdf4a8739fcf4ab5cc",
    ("PP3", 5): "0a8706be1c2d2430ecaadfdaac264f3e4c7a9a14efb4f9d3da39cab9c7644eef",
    ("PP3", 6): "28d6a9aa39e0f6e6e3239966cd3cf786756b35b416622475973249c2f5bde3d5",
    ("ygenus", 2, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("ygenus", 3, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("ygenus", 4, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("ygenus", 5, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("ygenus", 6, 1): "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ("ygenus", 2, 2): "604d365ffbbcb2497e157331b9d236d4648659ad949b63d0ce520e337d0f94cf",
    ("ygenus", 3, 2): "f7f17ae70854ea4a74e7bae7ebad368996e70a6034da0a56c6c338c77e32a39b",
    ("ygenus", 4, 2): "7335ef56ded899c8568807e50cea57c1eab74fc2f884cef60586c11e41a3232a",
    ("ygenus", 5, 2): "8a49c29041521cc5462f4b51d03e6e9c64bd3262c6fe374082b45b5dc5b5d1fc",
    ("ygenus", 6, 2): "1a48b7b0a66c4eceee4d7116f7da301e6eb503412cfb76c3d1d5e4c380fa7d00",
    ("ygenus", 2, 3): "0b360e53cb4d2aaa3143265568cefe1713ac0043e1c2f18d62d0807eb90e63a4",
    ("ygenus", 3, 3): "761b7c2c6ecd542eec8d45109c0c36d9d90f4aab88bcea04fe6cd8bdb15f6f03",
    ("ygenus", 4, 3): "d07de657676300532fa46cf7f0ca0e7864222bfbbaf3dcaffab2f7ac11efb778",
    ("ygenus", 5, 3): "8338b5e1b5ff6de05a070cc7ba6ea7e9ab1843bde373bdfeac39d6f4f8dd6ff1",
    ("ygenus", 6, 3): "4c588967eb4e44779c5dc69a44fee72828a122f8f1188be86df76c759539089d",
    ("ygenus", 2, 4): "290e3ff881dce55519084d14d126dd0e8355955217970ab377b83150ddbdeb94",
    ("ygenus", 3, 4): "04a6e308aa292cc6b92f2cc363402702a3fb34297a6e2eeab0409ce511988196",
    ("ygenus", 4, 4): "5a7b317e32d704db2c40321ca69999ca52f424f9a784a746a05f862dd0dfa4ee",
    ("ygenus", 5, 4): "ae69d4cbe8da5965299d7809035da9cdcea613ee20cb757ab5803460c8649684",
    ("ygenus", 6, 4): "bfeacc1f3f21ef117f5debf0e5266c1066453333086de1d083bbbed07d09f029",
    ("ygenus", 2, 5): "0221dbf5cb1a6d70e7d1b74d3805abbe37af72812c0fb5eba3a934fc4219ce32",
    ("ygenus", 3, 5): "73cbbc7de176ade349991b9abf5f91bd308f979f73b5c62f76cbdcf0075988e1",
    ("ygenus", 4, 5): "54a6a0a973d2ec99d9d2bbf1ad79cd16f040c0c7d62a68fc447b4815cccdaca6",
    ("ygenus", 5, 5): "82b1f4e5693318ba932f7a7c2f1ecc6f09792d0efdd404f1eadfcb1afe10cdeb",
    ("ygenus", 6, 5): "9948d12d44d36e1857081f60651aa9c32edb944bde01f237e62a46d68eedf8e6",
    ("ygenus", 2, 6): "f30d44f520730523b7a93cdebe411894e024541019f8c59247ff3be831045b0f",
    ("ygenus", 3, 6): "147c8c2ecc76b3fdf41e268bc1b390cf00fdeeaa131810c155ed387d82be6426",
    ("ygenus", 4, 6): "5d5de28325087c7a0d4445c7a6083ba34a92da1f3323372d2165db1024cf46ba",
    ("ygenus", 5, 6): "82fe5e0145e637612a12443a4d7ef9b7b6e2c35ccbc909eb5e36c09b04bdcaab",
    ("ygenus", 6, 6): "28229d7c9cb357b037cccd0c5e96dc37e6f0f04c09feb6900040662875b86e99",
    ("ygenus", 2, 7): "9a978ec8cb2169c136eae1b656deba38338e41fcaadf4301b19a5edf8ef716a3",
    ("ygenus", 3, 7): "28a6fa37c734c143899e422ac3669b7c9bb5d4b47df01cc3e1a0c509fa73f435",
    ("ygenus", 4, 7): "566e532d6becd6e9f8a407b5777b51093ce5d4ccc9921f9854fde367effc9fef",
    ("ygenus", 5, 7): "eeaa352561c59297ba18280d690db17bb62b83f95e5b9fe6ff7312a53cbdf811",
    ("ygenus", 6, 7): "438cc4fa352dd274041a09898e3b16c3edfb793f655fe46ed83d19b2847daef1",
}


def test_closed_forms_match_golden_digests():
    """Each printed closed form, term signs and trinomial ratios included."""
    got = {
        key: hashlib.sha256(poly_text(closed_form(*key).as_polynomial()).encode()).hexdigest()
        for key in CLOSED_FORMS
    }
    assert got == CLOSED_FORMS


EXPORTS = [
    "BinomialFactor", "BridgeReport", "Cell", "CentralElementUnavailable",
    "CharacterTable", "CharvarError", "CheckEntry", "CheckReport", "ClassFunction",
    "ConjugacyData", "ConstantTermNotOne", "ContextError", "DiagramStats", "FLAVOR_E",
    "FLAVOR_PURE", "FLAVOR_QT", "FLAVOR_XY", "FactoredFraction", "Flavor",
    "FrobeniusCounts", "GroupTooLarge", "InvariantCache", "InvariantKind",
    "InvariantResult", "KindMismatch", "LiftFailure", "MatrixGroup",
    "NegativeExponentAtZero", "NonIntegerCoefficient", "NonIntegralCount",
    "NotDivisible", "NotPolynomial", "Partition", "SparsePoly", "TruncatedSeries",
    "UnsupportedGenus", "adams", "adams_poly", "binomial_product",
    "build_group", "cell_stats", "character_table", "closed_form",
    "commutator_distribution", "compute_invariant", "curious_duality_entry",
    "cyclotomic_polynomial", "diagonal_group", "divide_exact",
    "extract_layers", "frac_sum", "frobenius_sums", "hook_sum_series",
    "hook_term", "invariant_from_layer", "moebius", "palindrome_entry",
    "parse_kind", "partitions_of", "point_count_bridge", "poly_text",
    "run_check", "series_log", "specialize_invariant",
    "tuple_count", "verify_orthogonality",
]


def test_exported_names_are_pinned():
    """The public surface: the classes, functions and constants, not the submodules."""
    assert sorted(charvar.__all__) == EXPORTS

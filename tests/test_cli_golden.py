"""Byte pins for the CLI: the sha256 of stdout and the exit code of a fixed
list of cheap requests, covering every command and every element type
(NcPoly through reduce, CPoly through tower, SkewElement through em-sim and
the em and epsilon suites, IterantElement through iterant demo and matrix
decompose). Refactors of the algebra layers must leave every digest
unchanged; re-record the table only with a deliberate change of output.
"""

import hashlib

import pytest

from ncworlds.cli import main

# (argv, exit code, sha256 of stdout)
GOLDEN = [
    (["reduce", "[Q^1, P_1]", "--world", "flat"], 0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["reduce", "{X Y}"], 0, "8847fdbd6df1571100fcbdd2300e4f88ce3c6ca76d665db840b2558fb1aecc16"),
    (["reduce", "{T H H}", "--json"], 0, "9a3091ecf5f5d19029b29fac44bce4a35fb4fde0680b8b1bdfe2309591b7400d"),
    (["reduce", "P_1 P_1 Q^1 Q^1 P_2 Q^2", "--world", "flat", "--json"], 0, "bc1a49962ea6640679abb6b1e52e4548e48980e405b8be7390206209b072eb33"),
    (["reduce", "(i hbar P_2) (hbar^-1 Q^2) - 1/2 m", "--world", "flat"], 0, "407f2a969e1b958a8386ba8f43dbd0e5093fbb37a5f8f7d0bd80d3e7c73dced8"),
    (["reduce", "P_1 P_1 theta", "--world", "flat-fn", "--json"], 0, "d4e9667d6d4eddca8ca9fdca3697e22f730ef28f7de1682b172f60104944afad"),
    (["reduce", "C B A B C A", "--world", "abc"], 0, "69dddb603bb9c8252f35b5ee6bffe0e6fe4d0585ac91c97e369f5cad75609528"),
    (["reduce", "[[X, Y], Z] + [[Y, Z], X] + [[Z, X], Y]"], 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["reduce", "("], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["reduce", "P_1 Q_1 Q_2", "--world", "flat", "--max-steps", "2"], 0, "28f3e20e471fac8dce767bd979ac29726c4a7adb972ada74d194181a9a0e874b"),
    (["reduce", "P_1 P_1 Q^1 Q^1", "--world", "flat", "--max-steps", "3"], 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "iterant", "--seed", "1", "--json"], 0, "5cce11ed7989f5551c2d0908ba46f892a94321b87488179d7c521e87d7ea5f97"),
    (["verify", "flat", "--seed", "2", "--trials", "10", "--json"], 0, "d7d729a874374c43be4562413b55abd9604f11dbdb922243d125789608a7f19b"),
    (["verify", "schroedinger", "--json"], 0, "3b1a07dce8dd574d33807a973a8f9311812f2be611d89981ee93375c8f1f2191"),
    (["verify", "gauge", "--seed", "3", "--json"], 0, "d6ca504e3474efa0b549f37f62bed26b9937ccf030e9acf524165ad95c0ff9d6"),
    (["verify", "epsilon", "--seed", "4", "--length", "8", "--json"], 0, "47e75eb1f73a1667897f2aca102690503a3122f7ce7a4a130f12da7580b904f2"),
    (["verify", "em", "--seed", "5", "--trials", "2", "--length", "8", "--json"], 0, "762c26f6749dba827f78141f69f4c7b09f6a4880c7925ea4cc6a9cc3aa12ffe2"),
    (["verify", "constraints-1", "--json"], 0, "d3758fa1c48a87253335a05add89bde1398eacf96357bccdd5e87082e4d02d67"),
    (["verify", "constraints-2", "--seed", "6", "--json"], 0, "58ac602b926f58217919a491e826fc0eb397fb641a1453eb7950d07c6aa8bd31"),
    (["verify", "constraints-3", "--json"], 0, "9d3e34cf8e65e7a2f2a81e9936ae2059954a300acd2f4caff87d91ffc97309af"),
    (["verify", "tower", "--json"], 0, "e9151c713cbdc192b3ba79f4e199728d3ffb75a091a636c8d28194a4ffc4c498"),
    (["verify", "bianchi", "--seed", "7", "--trials", "10", "--json"], 0, "0932afda6100fc44ae3a4c072e975e33f08de419d00bb95d63275bc79a2ba2c3"),
    (["em-sim", "--trials", "3", "--length", "9", "--seed", "8", "--json"], 0, "a5770a07f753e671895c514e2b79e753d992358c38bb40c867a94ba9488fd5e2"),
    (["em-sim", "--trials", "2", "--length", "8", "--seed", "9", "--range", "5"], 0, "5ffec228d925516cf780390c89b119ec7fab19bcdc37767a4539774cf5d113ac"),
    (["em-sim", "--trials", "2", "--length", "3", "--json"], 1, "7f132fb706efa99ea94a308656db6540e8e3b5287bb4788932d7f3ae2f9bec77"),
    (["tower", "--levels", "8", "--coeff-series", "h-prime"], 0, "1f4b0869ff41e443cde81b07f0ba7b8778ed6a3d07005ca5fcec3097ecf4d294"),
    (["tower", "--levels", "12", "--coeff-series", "h-prime-squared", "--json"], 0, "b1b26fac1c30daa0362dacd20d7ec729c5019c75c1b4121d1c00f552ad657974"),
    (["iterant", "demo"], 0, "b40dcf75199deadc6e06746494a068b42f32a78e9ca95e22df5804e9ccf1975c"),
    (["matrix", "decompose", "[[1, 2], [3, \"1/2\"]]"], 0, "39192000fd0847e7d65ff3c5d1408a487a0840f1960d4a314d02cc142b8f7040"),
    (["matrix", "decompose", "[[0, 1, \"-2/3\"], [4, 5, 6], [7, 0, 9]]"], 0, "2f366fbc41a89e9d8e6da025143cd8755463883fc072611f8da79853c7162980"),
    (["matrix", "decompose", "[[1, 2], [3]]"], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["em-sim", "--trials", "4", "--length", "16", "--range", "5", "--json"], 0, "dc5e693d2d2009e9a0823dd37d3a51c63cded786cc44678b7a8a7b3b24168fd8"),
    (["verify", "em", "--seed", "12", "--trials", "2", "--length", "12", "--json"], 0, "67f2b3ee57de64c08d9919f965ce616f0971148f0766d69532e11e681fda3382"),
    (["verify", "epsilon", "--seed", "13", "--length", "12", "--json"], 0, "5ccb22ef82944008e6d261217e92196f3ce488ea5eda5c0acff5749135894fae"),
    (["reduce", "1/2 X Y - 3/4 Y X + hbar^-1 i X", "--json"], 0, "06508684fbb86d21fcad2d9964590c54f472755fa31e53250bfd9ec7df9c3835"),
    (["reduce", "X - hbar hbar^-1 X"], 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (["reduce", "hbar hbar^-1 X + X"], 0, "37085bba3c79eefd974f03d75ace6d304179db9ac852dd53d54b9062209684c5"),
    (["matrix", "decompose", "[[\"1/2\", -3, 0], [2, \"5/3\", 6], [7, 8, -1]]"], 0, "ee960b1eadd195b397a432855750dbc67e587bc4abb0a47b0970efebfda1c51f"),
    (["tower", "--levels", "20", "--json"], 0, "deda6ea58ae068c50676e0810882568c150697e54c822cddad50bc3791aa4a59"),
    (["reduce", "P_1 H theta", "--world", "flat-fn", "--json"], 0, "32062194e1e64ec444c4095f829c6903be5d1128a472b726ecbed761f5e17965"),
    (["reduce", "P_1 theta", "--world", "flat"], 0, "207c39b71eaa1163e13edec822fbbe9b0cc6de4f6c8f09274aed244b0c5b54d0"),
    (["reduce", " ".join(["(Q^1 P_1)"] * 10), "--world", "flat", "--json"], 0, "96d8d7e57837cd29b05a156a7aa4097aaea6af04736a5fdf88abba0c8bb8a181"),
    (["reduce", " ".join(["P_1"] * 6 + ["Q^1"] * 6), "--world", "flat", "--json"], 0, "2068efba513e27c12538253f73249a4a29f71ffe455a006d8fb1c8708f518db7"),
    (["reduce", "P_2 P_2 P_2 theta Q^2", "--world", "flat-fn", "--json"], 0, "92b97017902e603241d533387ca362ada2298e9a094727512d1c9bceabbd6887"),
    (["reduce", "{T H H H H H}", "--json"], 0, "1f72921ac18f1f2b3d22b47fa84ed150a064d00b194986a38ca99e1019530010"),
    (["reduce", "{A B C A}", "--world", "abc", "--json"], 0, "899afb67779e80d9360daa085f39315d1af9df157a4b04727671dab055acffb2"),
    # n = 4 to 7 with zeros; the n = 5 zero-row matrix leaves 96 of 120 diagonals
    (["matrix", "decompose", "[[0, \"1/2\", -3, \"2/7\"], [5, 0, \"-4/9\", 1], [\"3/8\", 2, 0, \"-1/6\"], [-7, \"5/3\", 4, 0]]"], 0, "64bab7ea93a921bff673bebe3eeb6ace4a2f6cea82fd13b174a32684ce46b208"),
    (["matrix", "decompose", "[[\"1/3\", 0, -2, \"4/5\", 7], [0, \"-1/2\", 3, 0, \"5/9\"], [6, \"2/3\", 0, -1, 0], [0, 0, \"7/4\", 2, \"-3/8\"], [\"-5/6\", 1, 0, 0, 9]]"], 0, "c64a1229b312c65fb73a5450a05484ff07b85ab4a0525a38c73e5412304da4ce"),
    (["matrix", "decompose", "[[0, \"2/1\", 0, \"-2/1\", 0, \"1/1\"], [0, \"-2/2\", \"3/3\", 0, \"-1/5\", \"-3/1\"], [\"3/1\", \"1/3\", 0, \"-3/2\", \"2/4\", 0], [\"-1/1\", 0, \"2/2\", 0, \"-2/3\", 0], [0, 0, \"-2/4\", \"3/3\", 0, \"-1/1\"], [\"-2/1\", \"3/1\", \"1/1\", 0, \"-3/1\", \"2/1\"]]"], 0, "b68e9af15f2512c7fefc99eca17655f05c454e657ce134b42543b1eded2b78f0"),
    (["matrix", "decompose", "[[0, \"-3/2\", \"-1/3\", \"1/4\", \"3/5\", 0, \"-4/1\"], [\"2/2\", \"4/3\", 0, \"-3/5\", \"-1/6\", \"1/1\", \"3/2\"], [\"-2/3\", \"0/4\", \"2/5\", \"4/6\", 0, \"-3/2\", \"-1/3\"], [\"5/4\", 0, \"-2/6\", \"0/1\", \"2/2\", \"4/3\", 0], [\"1/5\", \"3/6\", \"5/1\", 0, \"-2/3\", \"0/4\", \"2/5\"], [0, \"-1/1\", \"1/2\", \"3/3\", \"5/4\", 0, \"-2/6\"], [\"4/1\", \"-5/2\", 0, \"-1/4\", \"1/5\", \"3/6\", \"5/1\"]]"], 0, "a1129b94df67a1b3b8ee049794fafc088b6ed11fda7dab381fa7bb9b64ab8b96"),
    (["matrix", "decompose", "[[0, \"1/2\", 0, 0, -3], [0, 0, 0, 0, 0], [\"2/3\", 0, 0, 4, 0], [0, 0, \"-5/7\", 0, 0], [1, 0, 0, 0, \"3/4\"]]"], 0, "ccbdf597a60d8d34bc4593b69002e36864a58b38e93221ffabfc9bdae98495ed"),
    # failing runs: the series are too short for the field windows
    (["verify", "em", "--length", "3", "--trials", "5", "--json"], 1, "7ad86e7361aa7538c777b26079ebbea461c3bc067d6ff35a29276c456978f975"),
    (["verify", "em", "--length", "4", "--trials", "5", "--json"], 1, "b3addf215bc0d662714ee409bbec018fc153dc5b24d270ea3ddd9453f11bcdaf"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[f"{i:02d}-{argv[0]}" for i, (argv, _, _) in enumerate(GOLDEN)])
def test_cli_output_is_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
